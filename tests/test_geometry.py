import numpy as np
import pytest

from pancha.core import (
    BlochPoint,
    bloch_to_state,
    inner_product,
    orthogonal_complement,
    wrap_angle,
)
from pancha.errors import (
    AntipodalPointsError,
    BranchAmbiguityError,
    DegenerateSpectrumError,
    DegenerateTriangleError,
    OrthogonalStatesError,
)
from pancha.geometry import (
    SphericalTriangle,
    bargmann_invariant,
    geodesic_unitary,
    loop_holonomy,
    mixed_bargmann,
    mixed_chain_invariant,
    mixed_solid_angle_phase,
    multi_vertex_invariant,
    solid_angle,
)

from oracles import random_state, reversed_triangle

NORTH = BlochPoint(0.0, 0.0)
EQUATOR_X = BlochPoint(np.pi / 2, 0.0)
EQUATOR_Y = BlochPoint(np.pi / 2, np.pi / 2)
OCTANT = SphericalTriangle(NORTH, EQUATOR_X, EQUATOR_Y)
#: unit vectors of the points above, the ends geodesic_unitary takes
Z, X = NORTH.unit_vector(), EQUATOR_X.unit_vector()


def random_triple(seed, min_overlap=0.05):
    rng = np.random.default_rng(seed)
    from pancha.core import haar_state

    while True:
        states = [haar_state(rng) for _ in range(3)]
        overlaps = [abs(inner_product(states[i], states[(i + 1) % 3]))
                    for i in range(3)]
        if min(overlaps) > min_overlap:
            return states


class TestBargmannInvariant:
    def test_repeated_state(self):
        a = random_state(1)
        assert bargmann_invariant(a, a, a) == pytest.approx(0.0, abs=1e-15)

    def test_octant_value(self):
        a, b, c = OCTANT.states
        # cyclic product is (1 - i)/4
        assert bargmann_invariant(a, b, c) == pytest.approx(-np.pi / 4,
                                                            abs=1e-12)

    def test_orientation_exactly_negates(self):
        for seed in range(100):
            a, b, c = random_triple(seed)
            forward = bargmann_invariant(a, b, c)
            backward = bargmann_invariant(a, c, b)
            assert wrap_angle(forward + backward) == 0.0

    def test_rephasing_invariance(self):
        a, b, c = random_triple(7)
        base = bargmann_invariant(a, b, c)
        shifted = bargmann_invariant(np.exp(0.3j) * a, np.exp(-1.1j) * b,
                                     np.exp(2.2j) * c)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_orthogonal_overlap_rejected(self):
        plus = np.array([1.0, 0.0])
        minus = np.array([0.0, 1.0])
        mid = bloch_to_state(EQUATOR_X)
        with pytest.raises(OrthogonalStatesError):
            bargmann_invariant(plus, mid, minus)


class TestSolidAngle:
    def test_octant(self):
        assert solid_angle(OCTANT) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_collinear_zero_area(self):
        tri = SphericalTriangle(BlochPoint(np.pi / 2, 0.0),
                                BlochPoint(np.pi / 2, 0.4),
                                BlochPoint(np.pi / 2, 1.1))
        assert solid_angle(tri) == pytest.approx(0.0, abs=1e-12)

    def test_reversed_orientation(self):
        assert solid_angle(reversed_triangle(OCTANT)) == pytest.approx(
            -np.pi / 2, abs=1e-12)

    def test_azimuth_span_triangle(self):
        # pole triangle with equatorial azimuth span delta has area delta
        tri = SphericalTriangle(NORTH, EQUATOR_X, BlochPoint(np.pi / 2, 0.7))
        assert solid_angle(tri) == pytest.approx(0.7, abs=1e-12)

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            solid_angle(SphericalTriangle(NORTH, NORTH, EQUATOR_X))

    def test_antipodal_vertices_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            solid_angle(SphericalTriangle(NORTH, BlochPoint(np.pi, 0.0),
                                          EQUATOR_X))

    def test_matches_invariant_on_random_triples(self):
        for seed in range(200):
            a, b, c = random_triple(seed)
            tri = SphericalTriangle.from_states([a, b, c])
            residual = wrap_angle(bargmann_invariant(a, b, c)
                                  + solid_angle(tri) / 2.0)
            assert abs(residual) < 1e-9


class TestGeodesicUnitary:
    def test_identity_for_equal_points(self):
        np.testing.assert_allclose(geodesic_unitary(X, X),
                                   np.eye(2), atol=1e-15)

    def test_pole_to_equator_axis(self):
        from pancha.core import matrix_exponential_su2

        got = geodesic_unitary(Z, X)
        want = matrix_exponential_su2((0.0, 1.0, 0.0), np.pi / 2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_maps_start_to_end(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = BlochPoint(rng.uniform(0.05, np.pi - 0.05),
                           rng.uniform(0.0, 2.0 * np.pi))
            q = BlochPoint(rng.uniform(0.05, np.pi - 0.05),
                           rng.uniform(0.0, 2.0 * np.pi))
            moved = geodesic_unitary(p.unit_vector(), q.unit_vector()) @ bloch_to_state(p)
            assert abs(inner_product(bloch_to_state(q), moved)) == (
                pytest.approx(1.0, abs=1e-10))

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalPointsError):
            geodesic_unitary(Z, BlochPoint(np.pi, 0.0).unit_vector())

    def test_one_fraction_array_matches_whole_arc(self):
        p, q = BlochPoint(0.4, 1.0).unit_vector(), BlochPoint(2.0, 3.0).unit_vector()
        np.testing.assert_array_equal(geodesic_unitary(p, q, np.array([1.0]))[0],
                                      geodesic_unitary(p, q))

    def test_fractions_split_the_arc(self):
        p, q = BlochPoint(0.4, 1.0).unit_vector(), BlochPoint(2.0, 3.0).unit_vector()
        quarter, half = geodesic_unitary(p, q, np.array([0.25, 0.5]))
        np.testing.assert_allclose(quarter @ quarter, half, atol=1e-14)
        np.testing.assert_allclose(half @ half, geodesic_unitary(p, q),
                                   atol=1e-14)

    def test_coincident_points_give_identities(self):
        got = geodesic_unitary(X, X, np.linspace(0.1, 1.0, 5))
        np.testing.assert_array_equal(got, np.tile(np.eye(2), (5, 1, 1)))


class TestLoopHolonomy:
    def test_degenerate_loop_is_identity(self):
        tri = SphericalTriangle(EQUATOR_X, EQUATOR_X, EQUATOR_X)
        np.testing.assert_allclose(loop_holonomy(tri), np.eye(2), atol=1e-15)

    def test_octant_vertex_phase(self):
        a = bloch_to_state(NORTH)
        val = inner_product(a, loop_holonomy(OCTANT) @ a)
        assert np.angle(val) == pytest.approx(-np.pi / 4, abs=1e-12)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_triangle_gives_inverse(self):
        forward = loop_holonomy(OCTANT)
        backward = loop_holonomy(reversed_triangle(OCTANT))
        np.testing.assert_allclose(backward @ forward, np.eye(2), atol=1e-12)

    def test_complement_gets_opposite_phase(self):
        a_perp = orthogonal_complement(bloch_to_state(NORTH))
        val = inner_product(a_perp, loop_holonomy(OCTANT) @ a_perp)
        assert np.angle(val) == pytest.approx(np.pi / 4, abs=1e-12)


class TestMultiVertexInvariant:
    def test_two_states_vanishes(self):
        a, b, _ = random_triple(3)
        assert multi_vertex_invariant([a, b]) == pytest.approx(0.0, abs=1e-15)

    def test_three_states_match_bargmann(self):
        a, b, c = random_triple(4)
        assert multi_vertex_invariant([a, b, c]) == pytest.approx(
            bargmann_invariant(a, b, c), abs=1e-12)

    def test_additive_split(self):
        rng = np.random.default_rng(8)
        from pancha.core import haar_state

        for _ in range(100):
            states = [haar_state(rng) for _ in range(4)]
            if min(abs(inner_product(states[i], states[j]))
                   for i, j in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]) < 0.05:
                continue
            a, b, c, d = states
            total = multi_vertex_invariant([a, b, c, d])
            split = bargmann_invariant(a, b, c) + bargmann_invariant(a, c, d)
            assert abs(wrap_angle(total - split)) < 1e-9

    def test_repeated_vertex_dropped(self):
        a, b, c = random_triple(5)
        assert multi_vertex_invariant([a, b, b, c]) == pytest.approx(
            multi_vertex_invariant([a, b, c]), abs=1e-12)

    def test_vanishing_link_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(OrthogonalStatesError):
            multi_vertex_invariant([a, np.array([0.0, 1.0])])


class TestMixedBargmann:
    def test_unit_weight_reduces_to_pure(self):
        a, b, c = OCTANT.states
        assert mixed_bargmann(OCTANT, 1.0) == pytest.approx(
            bargmann_invariant(a, b, c), abs=1e-10)

    def test_octant_half_radius(self):
        got = mixed_bargmann(OCTANT, 0.5)
        assert got == pytest.approx(-np.arctan(0.5 * np.tan(np.pi / 4)),
                                    abs=1e-10)
        assert got == pytest.approx(-0.46365, abs=5e-6)

    def test_orientation_reversal_negates(self):
        weights = np.array([0.75, 0.25])
        basis_a, basis_b, basis_c = (np.stack([s, orthogonal_complement(s)], axis=-1)
                                     for s in OCTANT.states)
        a, b, c = OCTANT.vectors
        u = geodesic_unitary(b, c) @ geodesic_unitary(a, b)
        forward = mixed_chain_invariant(weights, [basis_a, basis_b, basis_c], u)
        assert forward == mixed_bargmann(OCTANT, 0.5)
        # stations b and c swapped, transport inverted
        backward = mixed_chain_invariant(weights, [basis_a, basis_c, basis_b],
                                         u.conj().T)
        assert backward == pytest.approx(-forward, abs=1e-12)

    def test_degenerate_weights_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            mixed_bargmann(OCTANT, 0.0)

    def test_matches_closed_form_on_random_triangles(self):
        rng = np.random.default_rng(17)
        from pancha.core import haar_state

        count = 0
        while count < 100:
            states = [haar_state(rng) for _ in range(3)]
            if min(abs(inner_product(states[i], states[(i + 1) % 3]))
                   for i in range(3)) < 0.05:
                continue
            tri = SphericalTriangle.from_states(states)
            omega = solid_angle(tri)
            if abs(omega) >= 2.0 * np.pi - 0.1:
                continue
            count += 1
            r = rng.uniform(0.05, 1.0)
            residual = wrap_angle(mixed_bargmann(tri, r)
                                  - mixed_solid_angle_phase(r, omega))
            assert abs(residual) < 1e-8


class TestMixedSolidAnglePhase:
    def test_pure_limit(self):
        assert mixed_solid_angle_phase(1.0, np.pi / 2) == pytest.approx(
            -np.pi / 4, abs=1e-15)

    def test_half_radius(self):
        assert mixed_solid_angle_phase(0.5, np.pi / 2) == pytest.approx(
            -np.arctan(0.5), abs=1e-15)

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9, 1.0, -0.7])
    def test_zero_area(self, r):
        assert mixed_solid_angle_phase(r, 0.0) == 0.0

    def test_degenerate_radius_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            mixed_solid_angle_phase(0.0, np.pi / 2)

    def test_multiturn_rejected(self):
        with pytest.raises(BranchAmbiguityError):
            mixed_solid_angle_phase(0.5, 2.0 * np.pi)

    def test_continuous_through_half_turn(self):
        below = mixed_solid_angle_phase(0.5, np.pi - 1e-6)
        above = mixed_solid_angle_phase(0.5, np.pi + 1e-6)
        assert above - below == pytest.approx(0.0, abs=1e-5)
        assert mixed_solid_angle_phase(0.5, np.pi) == pytest.approx(-np.pi / 2)
