import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancha.core import (
    BlochPoint,
    KET_PLUS_Z,
    bloch_to_state,
    matrix_exponential_su2,
    qubit_density,
    wrap_angle,
)
from pancha.errors import (
    IllConditionedError,
    OrthogonalStatesError,
    VanishingTraceError,
)
from pancha.phase import (
    fit_fringe,
    mixed_interference_profile,
    mixed_phase,
    pancharatnam_phase,
    pure_interference_profile,
)

from oracles import random_state

CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


class TestPancharatnamPhase:
    def test_global_phase_reduction(self):
        a = random_state(3)
        res = pancharatnam_phase(a, np.exp(0.7j) * a)
        assert res.phase == pytest.approx(0.7, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            pancharatnam_phase(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_nan_overlap_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            pancharatnam_phase(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))

    def test_nan_overlap_row_undefined(self):
        res = pancharatnam_phase(np.array([[np.nan, 0.0], [1.0, 0.0]]),
                                 np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.isnan(res.phase[0]) and res.phase[1] == 0.0

    def test_equator_state(self):
        res = pancharatnam_phase(KET_PLUS_Z,
                                 bloch_to_state(BlochPoint(np.pi / 2, np.pi / 2)))
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    @given(st.integers(0, 2000), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_gauge_covariance(self, seed, mu, nu):
        a, b = random_state(2 * seed), random_state(2 * seed + 1)
        base = pancharatnam_phase(a, b)
        shifted = pancharatnam_phase(np.exp(1j * mu) * a, np.exp(1j * nu) * b)
        assert abs(wrap_angle(shifted.phase - (base.phase + nu - mu))) < 1e-10

    @given(st.integers(0, 2000))
    @settings(max_examples=60)
    def test_antisymmetry(self, seed):
        a, b = random_state(2 * seed), random_state(2 * seed + 1)
        forward = pancharatnam_phase(a, b).phase
        backward = pancharatnam_phase(b, a).phase
        assert abs(wrap_angle(forward + backward)) < 1e-12


class TestPureProfile:
    def test_constructive_and_destructive(self):
        a = random_state(5)
        profile = pure_interference_profile(a, a, [0.0, np.pi, np.pi / 2])
        assert profile[0] == pytest.approx(4.0, abs=1e-12)
        assert profile[1] == pytest.approx(0.0, abs=1e-12)

    def test_equator_sample(self):
        b = bloch_to_state(BlochPoint(np.pi / 2, 0.0))
        profile = pure_interference_profile(KET_PLUS_Z, b, CHI_GRID)
        assert profile[0] == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)

    def test_orthogonal_profile_flat_and_undefined(self):
        profile = pure_interference_profile(np.array([1.0, 0.0]),
                                            np.array([0.0, 1.0]), CHI_GRID)
        np.testing.assert_allclose(profile, 2.0, atol=1e-12)
        assert np.isnan(fit_fringe(CHI_GRID, profile).phase)

    def test_intensity_range(self):
        a, b = random_state(11), random_state(12)
        profile = pure_interference_profile(a, b, CHI_GRID)
        assert profile.min() >= -1e-12
        assert profile.max() <= 4.0 + 1e-12

    def test_profile_maximum_at_relative_phase(self):
        a, b = random_state(21), random_state(22)
        chis = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        profile = pure_interference_profile(a, b, chis)
        peak = chis[np.argmax(profile)]
        expected = pancharatnam_phase(a, b).phase
        assert abs(wrap_angle(peak - expected)) < 2 * np.pi / 4096 + 1e-12

    def test_fit_recovers_overlap(self):
        for seed in range(20):
            a, b = random_state(2 * seed + 100), random_state(2 * seed + 101)
            fitted = fit_fringe(CHI_GRID, pure_interference_profile(a, b, CHI_GRID))
            direct = pancharatnam_phase(a, b)
            assert abs(wrap_angle(fitted.phase - direct.phase)) < 1e-8
            assert fitted.visibility == pytest.approx(direct.visibility, abs=1e-8)


class TestMixedPhase:
    def test_identity_evolution(self):
        rho = qubit_density(0.7, (0.6, 0.0, 0.8))
        res = mixed_phase(rho, np.eye(2))
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_z_rotation(self):
        u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
        res = mixed_phase(qubit_density(0.0), u)
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(np.cos(0.3), abs=1e-12)

    def test_rank_one_reduction_example(self):
        rho = np.outer(KET_PLUS_Z, KET_PLUS_Z.conj())
        u = np.diag([np.exp(0.4j), 1.0])
        res = mixed_phase(rho, u)
        assert res.phase == pytest.approx(0.4, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_matches_pure(self):
        for seed in range(10):
            a = random_state(seed + 40)
            u = matrix_exponential_su2((0.0, 0.6, 0.8), 0.3 + 0.2 * seed)
            got = mixed_phase(np.outer(a, a.conj()), u)
            want = pancharatnam_phase(a, u @ a)
            assert abs(wrap_angle(got.phase - want.phase)) < 1e-10
            assert got.visibility == pytest.approx(want.visibility, abs=1e-10)

    def test_vanishing_trace_rejected(self):
        u = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        with pytest.raises(VanishingTraceError):
            mixed_phase(qubit_density(0.0), u)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixed_phase(qubit_density(0.5), np.eye(4))


class TestMixedProfile:
    def test_pure_density_matches_pure_profile(self):
        a = random_state(60)
        u = matrix_exponential_su2((1.0, 0.0, 0.0), 0.9)
        mixed = mixed_interference_profile(np.outer(a, a.conj()), u, CHI_GRID)
        pure = pure_interference_profile(a, u @ a, CHI_GRID)
        np.testing.assert_allclose(mixed, pure, atol=1e-10)

    def test_flat_profile_for_vanishing_trace(self):
        u = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        profile = mixed_interference_profile(qubit_density(0.0), u, CHI_GRID)
        np.testing.assert_allclose(profile, 2.0, atol=1e-12)
        assert np.isnan(fit_fringe(CHI_GRID, profile).phase)

    def test_dual_route_agreement_half_radius(self):
        # rotation by 0.6 about z phases the poles by exp(-+0.3j)
        u = matrix_exponential_su2((0.0, 0.0, 1.0), 0.6)
        profile = mixed_interference_profile(qubit_density(0.5), u, CHI_GRID)
        expected_vis = abs(np.cos(0.3) - 0.5j * np.sin(0.3))
        assert fit_fringe(CHI_GRID, profile).visibility == pytest.approx(
            expected_vis, abs=1e-9)


class TestFitFringe:
    def test_exact_model(self):
        data = 2.0 + 2.0 * np.cos(CHI_GRID - 0.5)
        res = fit_fringe(CHI_GRID, data)
        assert res.phase == pytest.approx(0.5, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_flat_samples_undefined(self):
        res = fit_fringe(CHI_GRID, np.full_like(CHI_GRID, 2.0))
        assert np.isnan(res.phase)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(7)
        data = 2.0 + 1.2 * np.cos(CHI_GRID + 0.9) + rng.normal(0.0, 0.01, 64)
        res = fit_fringe(CHI_GRID, data)
        assert res.phase == pytest.approx(-0.9, abs=0.01)
        assert res.visibility == pytest.approx(0.6, abs=0.01)

    def test_too_few_distinct_samples(self):
        with pytest.raises(IllConditionedError):
            fit_fringe([0.0, 0.0, 1.0], [4.0, 4.0, 2.0])

    def test_rank_deficient_design(self):
        # chi in {0, pi, 2 pi} leaves the sine column identically zero
        with pytest.raises(IllConditionedError):
            fit_fringe([0.0, np.pi, 2.0 * np.pi], [4.0, 0.0, 4.0])
