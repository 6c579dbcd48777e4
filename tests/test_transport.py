import numpy as np
import pytest

from pancha.core import (
    BlochPoint,
    KET_PLUS_Z,
    SIGMA_Z,
    bloch_to_state,
    haar_state,
    matrix_exponential_su2,
    wrap_angle,
)
from pancha.errors import (
    AntipodalEndpointsError,
    AntipodalPointsError,
    BranchAmbiguityError,
    DegenerateSpectrumError,
    OrthogonalStatesError,
    VanishingEndpointOverlapError,
)
from pancha.geometry import SphericalTriangle, geodesic_unitary, loop_holonomy
from pancha.phase import mixed_phase
from pancha.transport import (
    DiscretePath,
    PrecessionSpec,
    chain_phase,
    dynamical_phase,
    geodesic_closure_solid_angle,
    is_parallel_lift,
    make_parallel_lift,
    mixed_noncyclic_phase,
    pancharatnam_vs_auxiliary,
    precession_comparison_unitary,
    precession_hamiltonian,
    precession_path,
    precession_phase_closed_form,
    precession_phase_simulated,
    sample_triangle_path,
)

from oracles import auxiliary_hamiltonian, evolution, random_state

WORKED_EXAMPLE = PrecessionSpec(theta=np.pi / 3, phi=np.pi / 2)
WORKED_VALUE = -np.arctan(0.5 * np.tan(np.pi / 4)) + (np.pi / 4) * 0.5

OCTANT = SphericalTriangle(BlochPoint(0.0, 0.0), BlochPoint(np.pi / 2, 0.0),
                           BlochPoint(np.pi / 2, np.pi / 2))


def constant_path(n=50):
    state = random_state(3)
    return DiscretePath(np.linspace(0.0, 1.0, n),
                        np.tile(state, (n, 1)))


def pure_gauge_path(alphas):
    state = random_state(4)
    phases = np.exp(1j * np.asarray(alphas))
    return DiscretePath(np.linspace(0.0, 1.0, len(alphas)),
                        phases[:, None] * state[None, :])


def stepwise_parallel_lift(path):
    """Reference lift: rephase one state at a time against its rephased
    predecessor."""
    states = path.states.copy()
    for j in range(1, path.n_samples):
        states[j] *= np.exp(-1j * np.angle(np.vdot(states[j - 1], states[j])))
    return states


def stepwise_triangle_states(triangle, n):
    """Reference triangle path: one fractional geodesic rotation per step."""
    per_side = n // 3
    corners = triangle.vectors[[0, 1, 2, 0]]
    states = [triangle.states[0]]
    for p, q in zip(corners[:-1], corners[1:]):
        start = states[-1]
        for step in range(1, per_side + 1):
            states.append(geodesic_unitary(p, q, step / per_side) @ start)
    return np.array(states)


class TestChainPhase:
    def test_constant_path(self):
        assert chain_phase(constant_path()) == pytest.approx(0.0, abs=1e-12)

    def test_pure_gauge_path(self):
        alphas = np.linspace(0.0, 2.2, 40)
        assert chain_phase(pure_gauge_path(alphas)) == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_octant_loop(self):
        path = sample_triangle_path(OCTANT, 10_000)
        assert chain_phase(path) == pytest.approx(-np.pi / 4, abs=1e-3)

    def test_orthogonal_link_rejected(self):
        states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=complex)
        path = DiscretePath([0.0, 0.5, 1.0], states)
        with pytest.raises(OrthogonalStatesError):
            chain_phase(path)

    def test_orthogonal_endpoints_rejected(self):
        mid = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        states = np.array([[1.0, 0.0], mid, [0.0, 1.0]], dtype=complex)
        path = DiscretePath([0.0, 0.5, 1.0], states)
        with pytest.raises(VanishingEndpointOverlapError):
            chain_phase(path)

    def test_precession_matches_closed_form(self):
        path = precession_path(WORKED_EXAMPLE, 10_000)
        assert chain_phase(path) == pytest.approx(WORKED_VALUE, abs=1e-3)


class TestParallelLift:
    def test_make_then_check(self):
        path = precession_path(WORKED_EXAMPLE, 500)
        lifted = make_parallel_lift(path)
        assert is_parallel_lift(lifted)

    def test_already_parallel_unchanged(self):
        path = precession_path(WORKED_EXAMPLE, 200)
        once = make_parallel_lift(path)
        twice = make_parallel_lift(once)
        np.testing.assert_allclose(once.states, twice.states, atol=1e-12)

    def test_pure_gauge_becomes_constant(self):
        path = pure_gauge_path(np.linspace(0.0, 1.5, 30))
        lifted = make_parallel_lift(path)
        np.testing.assert_allclose(lifted.states,
                                   np.tile(lifted.states[0], (30, 1)),
                                   atol=1e-12)

    def test_gauge_path_not_parallel(self):
        path = pure_gauge_path(np.linspace(0.0, 1.0, 30))
        assert not is_parallel_lift(path)

    def test_precession_lift_not_parallel(self):
        # the precessing spin accumulates local phase at rate cos(theta)/2
        path = precession_path(PrecessionSpec(np.pi / 3, np.pi / 2), 300)
        assert not is_parallel_lift(path)
        links = np.einsum("ij,ij->i", path.states[1:].conj(), path.states[:-1])
        assert np.abs(np.angle(links)).min() > 1e-6  # far from PARALLEL_TOL

    def test_endpoint_phase_equals_chain(self):
        path = precession_path(WORKED_EXAMPLE, 10_000)
        lifted = make_parallel_lift(path)
        endpoint = np.angle(np.vdot(lifted.states[0], lifted.states[-1]))
        assert abs(wrap_angle(endpoint - chain_phase(path))) < 1e-10
        assert endpoint == pytest.approx(WORKED_VALUE, abs=1e-3)

    def test_matches_stepwise_lift(self):
        rng = np.random.default_rng(12)
        states = np.cumsum(0.05 * (rng.standard_normal((1000, 2))
                                   + 1j * rng.standard_normal((1000, 2))),
                           axis=0) + np.array([1.0, 0.5])
        states /= np.linalg.norm(states, axis=1)[:, None]
        path = DiscretePath(np.linspace(0.0, 1.0, 1000), states)
        np.testing.assert_allclose(make_parallel_lift(path).states,
                                   stepwise_parallel_lift(path), atol=1e-12)

    def test_orthogonal_link(self):
        path = DiscretePath([0.0, 1.0], np.eye(2, dtype=complex))
        assert not is_parallel_lift(path)
        with pytest.raises(OrthogonalStatesError):
            make_parallel_lift(path)


class TestDynamicalPhase:
    def test_parallel_lift_has_none(self):
        lifted = make_parallel_lift(precession_path(WORKED_EXAMPLE, 300))
        assert dynamical_phase(lifted) == pytest.approx(0.0, abs=1e-10)

    def test_precession_rate(self):
        for theta in (np.pi / 6, np.pi / 3, 2 * np.pi / 3):
            spec = PrecessionSpec(theta, 1.3)
            got = dynamical_phase(precession_path(spec, 400))
            assert got == pytest.approx(-(1.3 / 2.0) * np.cos(theta), abs=1e-9)

    def test_pure_gauge_linear(self):
        alphas = 0.3 * np.linspace(0.0, 1.0, 1001)
        assert dynamical_phase(pure_gauge_path(alphas)) == pytest.approx(
            0.3, abs=1e-6)


class TestPancharatnamVsAuxiliary:
    def test_parallel_path_gives_endpoint_phase(self):
        lifted = make_parallel_lift(precession_path(WORKED_EXAMPLE, 400))
        endpoint = np.angle(np.vdot(lifted.states[0], lifted.states[-1]))
        assert pancharatnam_vs_auxiliary(lifted) == pytest.approx(endpoint,
                                                                  abs=1e-10)

    def test_pure_gauge_cancels(self):
        path = pure_gauge_path(np.linspace(0.0, 2.0, 500))
        assert pancharatnam_vs_auxiliary(path) == pytest.approx(0.0, abs=1e-9)

    def test_precession_reproduces_closed_form(self):
        path = precession_path(WORKED_EXAMPLE, 4096)
        got = pancharatnam_vs_auxiliary(path)
        assert got == pytest.approx(WORKED_VALUE, abs=1e-6)
        assert WORKED_VALUE == pytest.approx(-0.07095, abs=5e-6)

    def test_matches_chain_phase(self):
        path = precession_path(PrecessionSpec(1.1, 2.0), 1024)
        gap = abs(wrap_angle(pancharatnam_vs_auxiliary(path)
                             - chain_phase(path)))
        assert gap < 5.0 / 1024


class TestPrecessionClosedForm:
    def test_degenerate_axis(self):
        for phi in (-3.0, -1.0, 0.5, 3.0):
            assert precession_phase_closed_form(
                PrecessionSpec(0.0, phi)) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_axis(self):
        assert precession_phase_closed_form(
            PrecessionSpec(np.pi / 2, 2.2)) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        got = precession_phase_closed_form(WORKED_EXAMPLE)
        assert got == pytest.approx(-0.07095, abs=5e-6)

    def test_simulated_agreement(self):
        for theta in (0.4, 1.0, 2.0):
            for phi in (0.3, 1.5, 2.8, 4.4):
                spec = PrecessionSpec(theta, phi)
                assert abs(wrap_angle(
                    precession_phase_simulated(spec)
                    - precession_phase_closed_form(spec))) < 1e-9

    def test_multiturn_rejected(self):
        with pytest.raises(BranchAmbiguityError):
            precession_phase_closed_form(PrecessionSpec(1.0, 2.0 * np.pi))


class TestAuxiliaryHamiltonian:
    """The comparison unitary undoes the auxiliary evolution under
    (cos(theta)/2) sz after the precession."""

    def test_equatorial_axis_vanishes(self):
        # no auxiliary evolution: the bare precession about x
        np.testing.assert_allclose(
            precession_comparison_unitary(PrecessionSpec(np.pi / 2, 1.0)),
            matrix_exponential_su2((1.0, 0.0, 0.0), 1.0), atol=1e-15)

    def test_polar_axis(self):
        # the auxiliary evolution is the precession itself
        np.testing.assert_allclose(
            precession_comparison_unitary(PrecessionSpec(0.0, 1.0)), np.eye(2),
            atol=1e-15)

    def test_worked_example_quarter_sigma_z(self):
        aux = auxiliary_hamiltonian(WORKED_EXAMPLE)
        np.testing.assert_allclose(aux, SIGMA_Z / 4.0, atol=1e-12)
        phi = WORKED_EXAMPLE.phi
        np.testing.assert_allclose(
            precession_comparison_unitary(WORKED_EXAMPLE),
            evolution(aux, -phi) @ evolution(
                precession_hamiltonian(WORKED_EXAMPLE.theta), phi),
            atol=1e-12)

    def test_cancels_local_phase_along_path(self):
        # exp(i*aux*t) applied to |+z> undoes the accumulated local phase
        spec = PrecessionSpec(np.pi / 3, 2.0)
        h = precession_hamiltonian(spec.theta)
        aux = auxiliary_hamiltonian(spec)
        rate = np.real(np.vdot(KET_PLUS_Z, h @ KET_PLUS_Z))
        np.testing.assert_allclose(aux @ KET_PLUS_Z, rate * KET_PLUS_Z,
                                   atol=1e-12)


class TestTrianglePath:
    def test_matches_stepwise_rotations(self):
        tri = SphericalTriangle(BlochPoint(0.3, 0.1), BlochPoint(2.0, 1.0),
                                BlochPoint(1.2, 4.0))
        path = sample_triangle_path(tri, 300)
        np.testing.assert_allclose(path.states, stepwise_triangle_states(tri, 300),
                                   atol=1e-13)
        np.testing.assert_allclose(path.states[-1],
                                   loop_holonomy(tri) @ path.states[0], atol=1e-12)

    def test_antipodal_side_rejected(self):
        tri = SphericalTriangle(BlochPoint(0.0, 0.0), BlochPoint(np.pi, 0.0),
                                BlochPoint(np.pi / 2, 0.3))
        with pytest.raises(AntipodalPointsError):
            sample_triangle_path(tri, 30)

    @pytest.mark.parametrize("n", [2, 1, 0, -5])
    def test_fewer_than_three_steps_rejected(self, n):
        with pytest.raises(ValueError, match="at least one step a side"):
            sample_triangle_path(OCTANT, n)

    @pytest.mark.parametrize("n", [3, 9, 12])
    def test_a_batch_of_triangles_rejected(self, n):
        batch = SphericalTriangle.from_states(
            haar_state(np.random.default_rng(n), shape=(4, 3)))
        with pytest.raises(ValueError, match="takes one triangle"):
            sample_triangle_path(batch, n)

    @pytest.mark.parametrize("n, steps", [(3, 3), (5, 3), (6, 6), (10_000, 9_999)])
    def test_three_floor_n_over_three_steps(self, n, steps):
        path = sample_triangle_path(OCTANT, n)
        assert path.n_samples == steps + 1
        corners = path.states[[0, steps // 3, 2 * steps // 3, steps]]
        overlaps = np.einsum("ij,ij->i", corners.conj(), OCTANT.states[[0, 1, 2, 0]])
        np.testing.assert_allclose(np.abs(overlaps), 1.0, atol=1e-15)


class TestGeodesicClosure:
    def test_octant_loop(self):
        path = sample_triangle_path(OCTANT, 3)
        assert geodesic_closure_solid_angle(path) == pytest.approx(
            np.pi / 2, abs=1e-12)

    def test_geodesic_arc_closes_to_nothing(self):
        arc = SphericalTriangle(BlochPoint(np.pi / 2, 0.2),
                                BlochPoint(np.pi / 2, 1.2),
                                BlochPoint(np.pi / 2, 0.2))
        path = sample_triangle_path(arc, 60)
        assert geodesic_closure_solid_angle(path) == pytest.approx(0.0,
                                                                   abs=1e-10)

    def test_precession_worked_example(self):
        path = precession_path(WORKED_EXAMPLE, 10_000)
        omega = geodesic_closure_solid_angle(path)
        assert omega == pytest.approx(2 * 0.07095, abs=1e-4)
        assert omega == pytest.approx(-2.0 * WORKED_VALUE, abs=1e-6)

    def test_antipodal_endpoints_rejected(self):
        half_meridian = precession_path(PrecessionSpec(np.pi / 2, np.pi), 100)
        with pytest.raises(AntipodalEndpointsError):
            geodesic_closure_solid_angle(half_meridian)

    def test_non_qubit_rejected(self):
        path = DiscretePath([0.0, 1.0], np.eye(4, dtype=complex)[:2])
        with pytest.raises(ValueError):
            geodesic_closure_solid_angle(path)


class TestMixedNoncyclic:
    def test_pure_limit(self):
        spec = PrecessionSpec(np.pi / 3, np.pi / 2, r=1.0)
        assert mixed_noncyclic_phase(spec) == pytest.approx(
            precession_phase_closed_form(spec), abs=1e-12)

    def test_worked_example_half_radius(self):
        got = mixed_noncyclic_phase(PrecessionSpec(np.pi / 3, np.pi / 2, r=0.5))
        assert got == pytest.approx(-np.arctan(0.5 * np.tan(0.07095)), abs=5e-6)
        assert got == pytest.approx(-0.03551, abs=5e-5)

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    def test_equatorial_axis_vanishes(self, r):
        assert mixed_noncyclic_phase(
            PrecessionSpec(np.pi / 2, 1.0, r=r)) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_degenerate_radius_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            mixed_noncyclic_phase(PrecessionSpec(1.0, 1.0, r=0.0))

    def test_trace_oracle(self):
        from pancha.core import qubit_density

        for r in (0.2, 0.5, 0.9):
            spec = PrecessionSpec(np.pi / 3, np.pi / 2, r=r)
            want = mixed_phase(qubit_density(r),
                               precession_comparison_unitary(spec)).phase
            assert abs(wrap_angle(mixed_noncyclic_phase(spec) - want)) < 1e-8


def test_precession_generators_are_not_copied():
    # one generator matrix viewed n + 1 times, not n + 1 copies of it
    assert precession_path(WORKED_EXAMPLE, 1000).generators.strides[0] == 0


class TestPathValidation:
    def test_time_ordering_required(self):
        states = np.tile(random_state(1), (3, 1))
        with pytest.raises(ValueError):
            DiscretePath([0.0, 0.5, 0.4], states).validate()

    def test_norms_required(self):
        states = np.tile(2.0 * random_state(1), (3, 1))
        with pytest.raises(ValueError):
            DiscretePath([0.0, 0.5, 1.0], states).validate()

    @pytest.mark.parametrize("h", [
        [[1.0, 1j], [0.0, 1.0]],  # only its upper triangle was read
        [[1.0, 0.0], [0.0, np.nan]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 1e-11], [0.0, 1.0]],
    ])
    def test_non_hermitian_or_non_finite_hamiltonian_refused(self, h):
        states = np.tile(KET_PLUS_Z, (3, 1))
        with pytest.raises(ValueError, match="hamiltonian"):
            DiscretePath([0.0, 0.5, 1.0], states, h)

    def test_one_bad_hamiltonian_of_a_batch_refused(self):
        h = np.stack([precession_hamiltonian(0.3)] * 3)
        h[1, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="hamiltonian"):
            DiscretePath([0.0, 0.5, 1.0], np.tile(KET_PLUS_Z, (3, 3, 1)), h)
        h[1, 0, 1] -= 1e-9
        DiscretePath([0.0, 0.5, 1.0], np.tile(KET_PLUS_Z, (3, 3, 1)), h)

    def test_lift_independence_of_chain(self):
        path = precession_path(PrecessionSpec(0.9, 1.7), 300)
        rng = np.random.default_rng(5)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, path.n_samples))
        rephased = DiscretePath(path.times, phases[:, None] * path.states)
        assert abs(wrap_angle(chain_phase(rephased)
                              - chain_phase(path))) < 1e-10
