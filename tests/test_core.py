import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancha.core import (
    BlochPoint,
    KET_MINUS_Z,
    KET_PLUS_Z,
    bloch_to_state,
    bloch_vector,
    haar_state,
    inner_product,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    qubit_density,
    random_state,
    state_to_bloch,
    tensor,
    wrap_angle,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestInnerProduct:
    def test_normalization(self):
        assert inner_product(KET_PLUS_Z, KET_PLUS_Z) == pytest.approx(1.0)

    def test_orthogonality(self):
        assert inner_product(KET_PLUS_Z, KET_MINUS_Z) == pytest.approx(0.0)

    def test_equator_overlap(self):
        state = bloch_to_state(BlochPoint(np.pi / 2, np.pi / 2))
        assert inner_product(KET_PLUS_Z, state) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_conjugate_symmetry(self):
        a, b = random_state(1), random_state(2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(KET_PLUS_Z, np.ones(4) / 2.0)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_cauchy_schwarz(self, seed_a, seed_b):
        a, b = random_state(seed_a), random_state(seed_b)
        assert abs(inner_product(a, b)) <= 1.0 + 1e-12


class TestBlochChart:
    @pytest.mark.parametrize("phi", [0.0, 1.0, np.pi, 5.0])
    def test_north_pole(self, phi):
        np.testing.assert_allclose(bloch_to_state(BlochPoint(0.0, phi)),
                                   [1.0, 0.0], atol=1e-15)

    def test_south_pole(self):
        np.testing.assert_allclose(bloch_to_state(BlochPoint(np.pi, 0.0)),
                                   [0.0, 1.0], atol=1e-15)

    def test_equator_point(self):
        np.testing.assert_allclose(
            bloch_to_state(BlochPoint(np.pi / 2, np.pi / 2)),
            [SQRT_HALF, 1j * SQRT_HALF], atol=1e-15)

    def test_inverse_chart_poles(self):
        assert state_to_bloch(np.array([1.0, 0.0])) == BlochPoint(0.0, 0.0)
        south = state_to_bloch(np.array([0.0, np.exp(1j * np.pi / 3)]))
        assert south.theta == pytest.approx(np.pi)
        assert south.phi == 0.0

    def test_inverse_chart_equator(self):
        point = state_to_bloch(np.array([SQRT_HALF, 1j * SQRT_HALF]))
        assert point.theta == pytest.approx(np.pi / 2)
        assert point.phi == pytest.approx(np.pi / 2)

    @given(st.floats(1e-6, np.pi - 1e-6), st.floats(0.0, 2 * np.pi,
                                                    exclude_max=True))
    def test_round_trip_angles(self, theta, phi):
        point = state_to_bloch(bloch_to_state(BlochPoint(theta, phi)))
        assert point.theta == pytest.approx(theta, abs=1e-10)
        assert abs(wrap_angle(point.phi - phi)) < 1e-10

    @given(st.integers(0, 10_000))
    def test_round_trip_states(self, seed):
        state = random_state(seed)
        again = bloch_to_state(state_to_bloch(state))
        assert abs(inner_product(state, again)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [1e-8, 1e-5, np.pi - 1e-6])
    def test_round_trip_near_poles(self, theta):
        point = state_to_bloch(bloch_to_state(BlochPoint(theta, 2.0)))
        assert point.theta == pytest.approx(theta, abs=1e-12)

    def test_unit_vector_round_trip(self):
        point = BlochPoint(1.1, 2.2)
        back = BlochPoint.from_vector(point.unit_vector())
        assert back.theta == pytest.approx(1.1)
        assert back.phi == pytest.approx(2.2)

    def test_bloch_vector_matches_chart(self):
        state = bloch_to_state(BlochPoint(1.0, 2.0))
        np.testing.assert_allclose(bloch_vector(state),
                                   BlochPoint(1.0, 2.0).unit_vector(),
                                   atol=1e-12)

    def test_rowwise_bloch_vectors_match_chart(self):
        rng = np.random.default_rng(7)
        states = np.array([haar_state(rng) for _ in range(50)])
        rows = bloch_vector(states)
        assert rows.shape == (50, 3)
        for state, row in zip(states, rows):
            np.testing.assert_allclose(row, bloch_vector(state), rtol=0.0,
                                       atol=1e-15)
            np.testing.assert_allclose(row, state_to_bloch(state).unit_vector(),
                                       atol=1e-12)


class TestTensor:
    def test_basis_products(self):
        np.testing.assert_allclose(tensor(KET_PLUS_Z, KET_PLUS_Z),
                                   [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(tensor(KET_PLUS_Z, KET_MINUS_Z),
                                   [0, 1, 0, 0], atol=1e-15)

    def test_superposition_ordering(self):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        np.testing.assert_allclose(tensor(plus, KET_PLUS_Z),
                                   [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-15)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_norm_multiplicative(self, seed_a, seed_b):
        a, b = random_state(seed_a), random_state(seed_b, dim=3)
        assert np.linalg.norm(tensor(a, b)) == pytest.approx(1.0, abs=1e-12)


class TestRandomState:
    def test_unit_norm(self):
        for seed in range(50):
            assert np.linalg.norm(random_state(seed)) == pytest.approx(1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_state(123), random_state(123))

    def test_seeds_differ(self):
        assert not np.allclose(random_state(1), random_state(2))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_state(0, dim=1)

    def test_haar_uniformity(self):
        # mean Bloch vector of many samples should shrink like 1/sqrt(n)
        rng = np.random.default_rng(2026)
        mean = np.mean([bloch_vector(haar_state(rng)) for _ in range(10_000)],
                       axis=0)
        assert np.linalg.norm(mean) < 0.05


class TestSu2Exponential:
    def test_zero_angle(self):
        np.testing.assert_allclose(matrix_exponential_su2((1, 0, 0), 0.0),
                                   np.eye(2), atol=1e-15)

    def test_spinor_sign(self):
        np.testing.assert_allclose(matrix_exponential_su2((1, 0, 0), 2 * np.pi),
                                   -np.eye(2), atol=1e-12)

    def test_z_rotation_diagonal(self):
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        np.testing.assert_allclose(matrix_exponential_su2((0, 0, 1), np.pi / 2),
                                   expected, atol=1e-15)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential_su2((0.0, 0.0, 0.0), 1.0)

    def test_zero_axis_density_rejected(self):
        with pytest.raises(ValueError):
            qubit_density(0.5, (0.0, 0.0, 0.0))

    def test_batched_angles_match_scalar_calls(self):
        axis = (0.3, -0.4, 0.5)
        angles = np.random.default_rng(8).uniform(-7.0, 7.0, (4, 25))
        batch = matrix_exponential_su2(axis, angles)
        assert batch.shape == (4, 25, 2, 2)
        for index in np.ndindex(angles.shape):
            np.testing.assert_array_equal(
                batch[index], matrix_exponential_su2(axis, angles[index]))

    @given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    @settings(max_examples=50)
    def test_angle_additivity(self, alpha, beta):
        axis = (0.6, 0.0, 0.8)
        combined = matrix_exponential_su2(axis, alpha) @ matrix_exponential_su2(
            axis, beta)
        np.testing.assert_allclose(combined,
                                   matrix_exponential_su2(axis, alpha + beta),
                                   atol=1e-10)

    def test_unit_determinant(self):
        u = matrix_exponential_su2((0.0, 0.6, 0.8), 1.234)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)


class TestAngles:
    def test_wrap_principal_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.3 + 4 * np.pi) == pytest.approx(0.3)

    def test_principal_angle_branch_edge(self):
        assert principal_angle(complex(-1.0, 0.0)) == pytest.approx(np.pi)
        assert principal_angle(complex(-1.0, -0.0)) == pytest.approx(np.pi)

    def test_orthogonal_complement(self):
        state = random_state(9)
        assert inner_product(state, orthogonal_complement(state)) == (
            pytest.approx(0.0, abs=1e-15))
