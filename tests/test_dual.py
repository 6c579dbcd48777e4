import numpy as np
import pytest

from pancha import dual
from pancha.core import haar_state, tensor, wrap_angle
from pancha.dual import (
    analyser_intensities,
    apply_arm_fields,
    dual_phase_closed_form,
    predicted_final_state,
    prepare_beam_state,
    spatial_vectors,
    spin_arm_states,
)
from pancha.errors import OrthogonalStatesError
from pancha.experiments import run_dual
from pancha.phase import fit_fringe, pancharatnam_phase, tilted_overlap

from oracles import spin_interference_profile

SQRT_HALF = 1.0 / np.sqrt(2.0)
CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


class TestSpinPancharatnam:
    """The one closed form read as the spin-arm law: angle is the
    precession angle."""

    def test_orthogonal_point_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            dual_phase_closed_form(np.pi / 2, np.pi)

    def test_balanced_quarter_turn(self):
        res = dual_phase_closed_form(np.pi / 2, np.pi / 2)
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(SQRT_HALF, abs=1e-12)

    @pytest.mark.parametrize("varphi", [0.4, 1.9, 3.5, 5.8])
    def test_polar_state_is_pure_rotation(self, varphi):
        res = dual_phase_closed_form(0.0, varphi)
        assert res.phase == pytest.approx(wrap_angle(-varphi / 2.0), abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_near_orthogonal_visibility_keeps_its_digits(self):
        # |<a|b>| is about 1e-8 here, below the resolution of
        # sqrt(1 - sin^2(theta) sin^2(varphi/2))
        angles = (np.pi / 2, np.pi - 2e-8)
        direct = abs(np.vdot(*spin_arm_states(*angles)))
        assert abs(dual_phase_closed_form(*angles).visibility - direct) <= 1e-15

    def test_worked_value(self):
        res = dual_phase_closed_form(np.pi / 3, np.pi / 2)
        assert res.phase == pytest.approx(-0.46365, abs=5e-6)
        assert res.visibility == pytest.approx(np.sqrt(0.625), abs=1e-12)


class TestSpinProfile:
    def test_no_precession(self):
        profile = spin_interference_profile(0.7, 0.0, CHI_GRID)
        np.testing.assert_allclose(profile, 2.0 + 2.0 * np.cos(CHI_GRID), atol=1e-12)

    def test_flat_at_orthogonality(self):
        profile = spin_interference_profile(np.pi / 2, np.pi, CHI_GRID)
        np.testing.assert_allclose(profile, 2.0, atol=1e-12)
        assert np.isnan(fit_fringe(CHI_GRID, profile).phase)

    def test_extraction_matches_closed_form(self):
        profile = spin_interference_profile(np.pi / 3, np.pi / 2, CHI_GRID)
        assert fit_fringe(CHI_GRID, profile).phase == pytest.approx(-0.46365, abs=1e-5)


class TestBeamPreparation:
    def test_full_transmission(self):
        np.testing.assert_allclose(
            prepare_beam_state(0.0),
            [1, 0, 0, 0], atol=1e-15)

    def test_full_reflection(self):
        np.testing.assert_allclose(
            prepare_beam_state(np.pi),
            [0, 0, 1, 0], atol=1e-12)

    def test_balanced_splitter(self):
        np.testing.assert_allclose(
            prepare_beam_state(np.pi / 2),
            [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-12)


class TestArmFields:
    def test_no_fields(self):
        psi = prepare_beam_state(1.0)
        np.testing.assert_allclose(apply_arm_fields(psi, 0.0, 0.0), psi,
                                   atol=1e-15)

    def test_equal_fields_rotate_spin_globally(self):
        from pancha.core import matrix_exponential_su2

        got = apply_arm_fields(prepare_beam_state(1.1), 0.8, 0.8)
        beam = np.array([np.cos(0.55), np.sin(0.55)], dtype=complex)
        spin = matrix_exponential_su2((1, 0, 0), 0.8) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(got, tensor(beam, spin), atol=1e-12)

    def test_matches_beam_pair_expansion(self):
        angles = (np.pi / 3, np.pi / 2, 0.0)
        direct = apply_arm_fields(prepare_beam_state(angles[0]), *angles[1:])
        np.testing.assert_allclose(direct, predicted_final_state(*angles),
                                   atol=1e-12)

    def test_random_specs_expansion(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            theta, varphi0, varphi1 = (rng.uniform(0, np.pi),
                                       rng.uniform(-2 * np.pi, 2 * np.pi),
                                       rng.uniform(-2 * np.pi, 2 * np.pi))
            direct = apply_arm_fields(prepare_beam_state(theta), varphi0, varphi1)
            np.testing.assert_allclose(direct,
                                       predicted_final_state(theta, varphi0, varphi1),
                                       atol=1e-10)

    def test_preserves_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = haar_state(rng, 4)
            _, varphi0, varphi1 = (rng.uniform(0, np.pi),
                                   rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            assert np.linalg.norm(apply_arm_fields(psi, varphi0, varphi1)) == (
                pytest.approx(1.0, abs=1e-12))

    def test_matches_the_block_diagonal_rotation(self):
        from pancha.core import matrix_exponential_su2

        rng = np.random.default_rng(8)
        psi = haar_state(rng, shape=(50,), dim=4)
        varphi0, varphi1 = rng.uniform(-2 * np.pi, 2 * np.pi, (2, 50))
        beams = [matrix_exponential_su2((1, 0, 0), varphi) @ half[..., None]
                 for varphi, half in ((varphi0, psi[:, :2]), (varphi1, psi[:, 2:]))]
        want = np.concatenate(beams, axis=-2)[..., 0]
        got = apply_arm_fields(psi, varphi0, varphi1)
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(float).eps)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            apply_arm_fields(np.array([1.0, 0.0]), 0.0, 0.0)

    def test_array_field_angles_match_scalar_calls(self):
        rng = np.random.default_rng(9)
        psi = haar_state(rng, 4)
        varphi0, varphi1 = rng.uniform(-4.0, 4.0, (2, 30))
        batch = apply_arm_fields(psi, varphi0, varphi1)
        assert batch.shape == (30, 4)
        for row, v0, v1 in zip(batch, varphi0, varphi1):
            np.testing.assert_array_equal(
                row, apply_arm_fields(psi, v0, v1))


class TestDualClosedForm:
    def test_no_difference(self):
        res = dual_phase_closed_form(1.0, 0.0)
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_worked_value(self):
        res = dual_phase_closed_form(np.pi / 3, np.pi / 2)
        assert res.phase == pytest.approx(-0.46365, abs=5e-6)
        assert res.visibility == pytest.approx(np.sqrt(0.625), abs=1e-12)

    def test_near_orthogonal_visibility_keeps_its_digits(self):
        angles = (np.pi / 2, np.pi - 2e-8)
        a_plus, a_minus = spatial_vectors(*angles)
        direct = abs(np.vdot(a_minus, a_plus))
        assert abs(dual_phase_closed_form(*angles).visibility - direct) <= 1e-15

    def test_orthogonal_point_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            dual_phase_closed_form(np.pi / 2, np.pi)

    def test_duality_with_spin_arm(self):
        # the one law holds the overlaps of both arrangements' own states
        for theta in np.linspace(0.05, np.pi - 0.05, 20):
            for dphi in np.linspace(-np.pi + 0.1, np.pi - 0.1, 20):
                closed = dual_phase_closed_form(theta, dphi)
                a_plus, a_minus = spatial_vectors(theta, dphi)
                for a, b in ((a_minus, a_plus), spin_arm_states(theta, dphi)):
                    overlap = np.vdot(a, b)
                    assert abs(wrap_angle(closed.phase - np.angle(overlap))) < 1e-10
                    assert closed.visibility == pytest.approx(abs(overlap),
                                                              abs=1e-10)

    def test_one_law_equals_both_direct_overlaps_rowwise(self):
        rng = np.random.default_rng(12)
        theta, angle = rng.uniform(0.0, np.pi, 50), rng.uniform(-7.0, 7.0, 50)
        closed = dual_phase_closed_form(theta, angle)
        a_plus, a_minus = spatial_vectors(theta, angle)
        for a, b in ((a_minus, a_plus), spin_arm_states(theta, angle)):
            overlap = np.sum(a.conj() * b, axis=-1)
            assert np.abs(wrap_angle(closed.phase - np.angle(overlap))).max() < 1e-12
            assert np.abs(closed.visibility - np.abs(overlap)).max() < 1e-12

    def test_beam_pair_vectors_are_unit(self):
        a_plus, a_minus = spatial_vectors(1.0, 1.5)
        assert np.linalg.norm(a_plus) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a_minus) == pytest.approx(1.0, abs=1e-12)


def spin_up_profile(theta, delta_phi):
    """The spin-up analyser fringe on CHI_GRID and its fit."""
    up = analyser_intensities(theta, delta_phi, CHI_GRID)[0]
    return up, fit_fringe(CHI_GRID, up)


class TestDualProfile:
    def test_no_difference_pure_cosine(self):
        up, _ = spin_up_profile(np.pi / 3, 0.0)
        np.testing.assert_allclose(up, 2.0 + 2.0 * np.cos(CHI_GRID), atol=1e-12)

    def test_flat_at_orthogonality(self):
        up, fitted = spin_up_profile(np.pi / 2, np.pi)
        np.testing.assert_allclose(up, 2.0, atol=1e-12)
        assert np.isnan(fitted.phase)

    def test_worked_extraction(self):
        _, fitted = spin_up_profile(np.pi / 3, np.pi / 2)
        assert fitted.phase == pytest.approx(-0.46365, abs=1e-5)
        assert fitted.visibility == pytest.approx(0.79057, abs=1e-5)

    def test_channel_sum_constant(self):
        up, down = analyser_intensities(1.0, 1.3, CHI_GRID)
        np.testing.assert_allclose(up + down, 4.0, atol=1e-10)

    def test_spin_arm_equivalence_of_extraction(self):
        # same fringe as the spin experiment with the roles interchanged
        _, fitted = spin_up_profile(0.9, 1.7)
        spin = pancharatnam_phase(*spin_arm_states(0.9, 1.7))
        assert abs(wrap_angle(fitted.phase - spin.phase)) < 1e-8
        assert fitted.visibility == pytest.approx(spin.visibility, abs=1e-8)

    @pytest.mark.parametrize("channel", [+1, -1])
    def test_matches_per_chi_loop(self, channel):
        theta, dphi = 0.7, 1.3
        slot = 0 if channel == +1 else 1
        want = []
        for chi in CHI_GRID:
            # np.abs of the state, not abs() of numpy scalars, whose
            # complex modulus may round differently in the last bit
            weights = np.abs(apply_arm_fields(prepare_beam_state(theta),
                                              chi + dphi / 2.0, chi - dphi / 2.0)) ** 2
            want.append(4.0 * (weights[slot] + weights[2 + slot]))
        got = analyser_intensities(theta, dphi, CHI_GRID)[slot]
        np.testing.assert_array_equal(got, want)


class TestAnalyserPass:
    """One build of the final states and one projection per channel read."""

    @pytest.mark.parametrize("theta, dphi", [(0.7, 1.3),
                                             (np.linspace(0.2, 2.9, 5), -0.4)])
    def test_states_are_built_once_for_both_channels(self, monkeypatch, theta, dphi):
        builds, slots = [], []
        real_states, real_channel = dual._analyser_states, dual._channel

        def states(*args):
            builds.append(args)
            return real_states(*args)

        def channel(psi, slot):
            slots.append(slot)
            return real_channel(psi, slot)

        monkeypatch.setattr(dual, "_analyser_states", states)
        monkeypatch.setattr(dual, "_channel", channel)
        analyser_intensities(theta, dphi, CHI_GRID)
        assert (len(builds), slots) == (1, [0, 1])


class TestSpinArmStates:
    def test_states_are_unit(self):
        initial, final = spin_arm_states(0.8, 2.1)
        assert np.linalg.norm(initial) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-12)


class TestRunDualDeltas:
    PARAMS = {"theta": 0.7, "delta_phi": 1.3, "samples": 64}

    def test_closed_form_agrees_with_direct_overlaps(self):
        deltas = run_dual(**self.PARAMS).oracle_deltas
        assert deltas["duality_phase"] <= 1e-15
        assert deltas["duality_visibility"] <= 1e-15

    def test_conjugated_law_is_caught(self, monkeypatch):
        # conjugation keeps the visibility, so only the phase delta moves
        monkeypatch.setattr(dual, "tilted_overlap",
                            lambda half, k: tilted_overlap(half, k).conjugate())
        assert run_dual(**self.PARAMS).oracle_deltas["duality_phase"] > 0.5
