import numpy as np
import pytest

from pancha import dual
from pancha.core import haar_state, tensor, wrap_angle
from pancha.dual import (
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
from pancha.errors import OrthogonalStatesError
from pancha.experiments import run_dual
from pancha.phase import tilted_overlap

from oracles import spin_interference_profile

SQRT_HALF = 1.0 / np.sqrt(2.0)
CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


class TestSpinPancharatnam:
    def test_orthogonal_point_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            spin_pancharatnam(SpinArmSpec(np.pi / 2, np.pi))

    def test_balanced_quarter_turn(self):
        res = spin_pancharatnam(SpinArmSpec(np.pi / 2, np.pi / 2))
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(SQRT_HALF, abs=1e-12)

    @pytest.mark.parametrize("varphi", [0.4, 1.9, 3.5, 5.8])
    def test_polar_state_is_pure_rotation(self, varphi):
        res = spin_pancharatnam(SpinArmSpec(0.0, varphi))
        assert res.phase == pytest.approx(wrap_angle(-varphi / 2.0), abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_near_orthogonal_visibility_keeps_its_digits(self):
        # |<a|b>| is about 1e-8 here, below the resolution of
        # sqrt(1 - sin^2(theta) sin^2(varphi/2))
        spec = SpinArmSpec(np.pi / 2, np.pi - 2e-8)
        direct = abs(np.vdot(*spin_arm_states(spec)))
        assert abs(spin_pancharatnam(spec).visibility - direct) <= 1e-15

    def test_worked_value(self):
        res = spin_pancharatnam(SpinArmSpec(np.pi / 3, np.pi / 2))
        assert res.phase == pytest.approx(-0.46365, abs=5e-6)
        assert res.visibility == pytest.approx(np.sqrt(0.625), abs=1e-12)


class TestSpinProfile:
    def test_no_precession(self):
        profile = spin_interference_profile(SpinArmSpec(0.7, 0.0), CHI_GRID)
        np.testing.assert_allclose(profile.intensities,
                                   2.0 + 2.0 * np.cos(CHI_GRID), atol=1e-12)

    def test_flat_at_orthogonality(self):
        profile = spin_interference_profile(SpinArmSpec(np.pi / 2, np.pi),
                                            CHI_GRID)
        np.testing.assert_allclose(profile.intensities, 2.0, atol=1e-12)
        assert not profile.extracted.defined

    def test_extraction_matches_closed_form(self):
        profile = spin_interference_profile(SpinArmSpec(np.pi / 3, np.pi / 2),
                                            CHI_GRID)
        assert profile.extracted.phase == pytest.approx(-0.46365, abs=1e-5)


class TestBeamPreparation:
    def test_full_transmission(self):
        np.testing.assert_allclose(
            prepare_beam_state(DualSetupSpec(0.0, 1.0, 2.0)),
            [1, 0, 0, 0], atol=1e-15)

    def test_full_reflection(self):
        np.testing.assert_allclose(
            prepare_beam_state(DualSetupSpec(np.pi, 1.0, 2.0)),
            [0, 0, 1, 0], atol=1e-12)

    def test_balanced_splitter(self):
        np.testing.assert_allclose(
            prepare_beam_state(DualSetupSpec(np.pi / 2, 1.0, 2.0)),
            [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-12)


class TestArmFields:
    def test_no_fields(self):
        spec = DualSetupSpec(1.0, 0.0, 0.0)
        psi = prepare_beam_state(spec)
        np.testing.assert_allclose(apply_arm_fields(psi, spec), psi,
                                   atol=1e-15)

    def test_equal_fields_rotate_spin_globally(self):
        from pancha.core import matrix_exponential_su2

        spec = DualSetupSpec(1.1, 0.8, 0.8)
        got = apply_arm_fields(prepare_beam_state(spec), spec)
        beam = np.array([np.cos(0.55), np.sin(0.55)], dtype=complex)
        spin = matrix_exponential_su2((1, 0, 0), 0.8) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(got, tensor(beam, spin), atol=1e-12)

    def test_matches_beam_pair_expansion(self):
        spec = DualSetupSpec(np.pi / 3, np.pi / 2, 0.0)
        direct = apply_arm_fields(prepare_beam_state(spec), spec)
        np.testing.assert_allclose(direct, predicted_final_state(spec),
                                   atol=1e-12)

    def test_random_specs_expansion(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            spec = DualSetupSpec(rng.uniform(0, np.pi),
                                 rng.uniform(-2 * np.pi, 2 * np.pi),
                                 rng.uniform(-2 * np.pi, 2 * np.pi))
            direct = apply_arm_fields(prepare_beam_state(spec), spec)
            np.testing.assert_allclose(direct, predicted_final_state(spec),
                                       atol=1e-10)

    def test_preserves_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = haar_state(rng, 4)
            spec = DualSetupSpec(rng.uniform(0, np.pi),
                                 rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            assert np.linalg.norm(apply_arm_fields(psi, spec)) == (
                pytest.approx(1.0, abs=1e-12))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            apply_arm_fields(np.array([1.0, 0.0]), DualSetupSpec(1.0, 0.0, 0.0))

    def test_array_field_angles_match_scalar_calls(self):
        rng = np.random.default_rng(9)
        psi = haar_state(rng, 4)
        varphi0, varphi1 = rng.uniform(-4.0, 4.0, (2, 30))
        batch = apply_arm_fields(psi, DualSetupSpec(0.9, varphi0, varphi1))
        assert batch.shape == (30, 4)
        for row, v0, v1 in zip(batch, varphi0, varphi1):
            np.testing.assert_array_equal(
                row, apply_arm_fields(psi, DualSetupSpec(0.9, v0, v1)))


class TestDualClosedForm:
    def test_no_difference(self):
        res = dual_phase_closed_form(DualSetupSpec(1.0, 0.3, 0.3))
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_worked_value(self):
        res = dual_phase_closed_form(DualSetupSpec(np.pi / 3, np.pi / 4,
                                                   -np.pi / 4))
        assert res.phase == pytest.approx(-0.46365, abs=5e-6)
        assert res.visibility == pytest.approx(np.sqrt(0.625), abs=1e-12)

    def test_near_orthogonal_visibility_keeps_its_digits(self):
        half = (np.pi - 2e-8) / 2.0
        spec = DualSetupSpec(np.pi / 2, half, -half)
        a_plus, a_minus = spatial_vectors(spec)
        direct = abs(np.vdot(a_minus, a_plus))
        assert abs(dual_phase_closed_form(spec).visibility - direct) <= 1e-15

    def test_orthogonal_point_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            dual_phase_closed_form(DualSetupSpec(np.pi / 2, np.pi / 2,
                                                 -np.pi / 2))

    def test_duality_with_spin_arm(self):
        for theta in np.linspace(0.05, np.pi - 0.05, 20):
            for dphi in np.linspace(-np.pi + 0.1, np.pi - 0.1, 20):
                dual = dual_phase_closed_form(
                    DualSetupSpec(theta, dphi / 2.0, -dphi / 2.0))
                spin = spin_pancharatnam(SpinArmSpec(theta, dphi))
                assert abs(wrap_angle(dual.phase - spin.phase)) < 1e-10
                assert dual.visibility == pytest.approx(spin.visibility,
                                                        abs=1e-10)

    def test_beam_pair_vectors_are_unit(self):
        a_plus, a_minus = spatial_vectors(DualSetupSpec(1.0, 2.0, 0.5))
        assert np.linalg.norm(a_plus) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a_minus) == pytest.approx(1.0, abs=1e-12)


class TestDualProfile:
    def test_no_difference_pure_cosine(self):
        profile = dual_coincidence_profile(np.pi / 3, 0.0, CHI_GRID)
        np.testing.assert_allclose(profile.intensities,
                                   2.0 + 2.0 * np.cos(CHI_GRID), atol=1e-12)

    def test_flat_at_orthogonality(self):
        profile = dual_coincidence_profile(np.pi / 2, np.pi, CHI_GRID)
        np.testing.assert_allclose(profile.intensities, 2.0, atol=1e-12)
        assert not profile.extracted.defined

    def test_worked_extraction(self):
        profile = dual_coincidence_profile(np.pi / 3, np.pi / 2, CHI_GRID)
        assert profile.extracted.phase == pytest.approx(-0.46365, abs=1e-5)
        assert profile.extracted.visibility == pytest.approx(0.79057, abs=1e-5)

    def test_channel_sum_constant(self):
        up = dual_coincidence_profile(1.0, 1.3, CHI_GRID)
        down = dual_coincidence_profile(1.0, 1.3, CHI_GRID, channel=-1)
        np.testing.assert_allclose(up.intensities + down.intensities, 4.0,
                                   atol=1e-10)

    def test_spin_arm_equivalence_of_extraction(self):
        # same fringe as the spin experiment with the roles interchanged
        profile = dual_coincidence_profile(0.9, 1.7, CHI_GRID)
        spin = spin_pancharatnam(SpinArmSpec(0.9, 1.7))
        assert abs(wrap_angle(profile.extracted.phase - spin.phase)) < 1e-8
        assert profile.extracted.visibility == pytest.approx(spin.visibility,
                                                             abs=1e-8)

    @pytest.mark.parametrize("channel", [+1, -1])
    def test_matches_per_chi_loop(self, channel):
        theta, dphi = 0.7, 1.3
        slot = 0 if channel == +1 else 1
        want = []
        for chi in CHI_GRID:
            spec = DualSetupSpec(theta, chi + dphi / 2.0, chi - dphi / 2.0)
            psi = apply_arm_fields(prepare_beam_state(spec), spec)
            want.append(4.0 * (abs(psi[slot]) ** 2 + abs(psi[2 + slot]) ** 2))
        got = dual_coincidence_profile(theta, dphi, CHI_GRID, channel=channel)
        np.testing.assert_allclose(got.intensities, want, rtol=0.0, atol=1e-15)

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            dual_coincidence_profile(1.0, 1.0, CHI_GRID, channel=0)


class TestSpinArmStates:
    def test_states_are_unit(self):
        initial, final = spin_arm_states(SpinArmSpec(0.8, 2.1))
        assert np.linalg.norm(initial) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-12)


class TestRunDualDeltas:
    PARAMS = {"theta": 0.7, "delta_phi": 1.3, "samples": 64}

    def test_closed_form_agrees_with_direct_overlaps(self):
        deltas = run_dual(self.PARAMS).oracle_deltas
        assert deltas["duality_phase"] <= 1e-15
        assert deltas["duality_visibility"] <= 1e-15

    def test_conjugated_law_is_caught(self, monkeypatch):
        # conjugation keeps the visibility, so only the phase delta moves
        monkeypatch.setattr(dual, "tilted_overlap",
                            lambda half, k: tilted_overlap(half, k).conjugate())
        assert run_dual(self.PARAMS).oracle_deltas["duality_phase"] > 0.5
