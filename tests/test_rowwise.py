"""The fringe fit and the dual and mixed kernels work row by row: each
batched row equals the single call, rows that cannot be evaluated are
NaN in a batch while the same row raises alone, and empty batches pass
through."""

import numpy as np
import pytest

from pancha.core import haar_state, matrix_exponential_su2, qubit_density
from pancha.dual import (
    analyser_intensities,
    apply_arm_fields,
    dual_phase_closed_form,
    predicted_final_state,
    prepare_beam_state,
    spatial_vectors,
    spin_arm_states,
)
from pancha.errors import (
    IllConditionedError,
    OrthogonalStatesError,
    VanishingTraceError,
)
from pancha.phase import (
    PhaseResult,
    fit_fringe,
    mixed_interference_profile,
    mixed_phase,
    pure_interference_profile,
    trace_overlap,
)

CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
RANK_DEFICIENT = np.array([0.0, np.pi, 2.0 * np.pi])  # sine column vanishes
TWO_DISTINCT = np.array([0.0, 0.0, 1.0])


def assert_rows_equal(batch: PhaseResult, singles, atol=0.0):
    """Every field of each batched row equals the single call's, NaN
    matching NaN; bit for bit unless atol is given."""
    assert len(singles) == len(batch.phase)
    for field in ("phase", "visibility"):
        want = np.array([getattr(s, field) for s in singles])
        np.testing.assert_allclose(getattr(batch, field), want, rtol=0.0, atol=atol)


def fringes(rng, k, chis):
    phases = rng.uniform(-np.pi, np.pi, k)
    vis = rng.uniform(0.05, 1.0, k)
    return 2.0 + 2.0 * vis[:, None] * np.cos(chis - phases[:, None])


class TestFitFringe:
    def test_batch_rows_equal_single_fits(self):
        data = fringes(np.random.default_rng(1), 50, CHI_GRID)
        batch = fit_fringe(CHI_GRID, data)
        assert batch.phase.shape == (50,) and not np.isnan(batch.phase).any()
        assert_rows_equal(batch, [fit_fringe(CHI_GRID, row) for row in data])

    def test_per_row_grids_agree_with_the_shared_grid(self):
        data = fringes(np.random.default_rng(2), 40, CHI_GRID)
        shared = fit_fringe(CHI_GRID, data)
        per_row = fit_fringe(np.broadcast_to(CHI_GRID, data.shape).copy(), data)
        for field in ("phase", "visibility"):
            np.testing.assert_allclose(getattr(per_row, field),
                                       getattr(shared, field), rtol=0.0,
                                       atol=1e-15)

    def test_distinct_per_row_grids_equal_single_fits(self):
        rng = np.random.default_rng(3)
        chis = np.sort(rng.uniform(0.0, 2.0 * np.pi, (30, 17)), axis=-1)
        data = fringes(rng, 30, chis)
        assert_rows_equal(fit_fringe(chis, data),
                          [fit_fringe(c, row) for c, row in zip(chis, data)],
                          atol=1e-15)

    def test_two_batch_axes(self):
        data = fringes(np.random.default_rng(4), 12, CHI_GRID).reshape(3, 4, 64)
        batch = fit_fringe(CHI_GRID, data)
        assert batch.phase.shape == (3, 4)
        flat = fit_fringe(CHI_GRID, data.reshape(12, 64))
        np.testing.assert_array_equal(batch.phase.ravel(), flat.phase)

    def test_matches_least_squares(self):
        rng = np.random.default_rng(5)
        chis = np.sort(rng.uniform(0.0, 2.0 * np.pi, 40))
        data = 1.7 + 0.9 * np.cos(chis - 0.4) + rng.normal(0.0, 0.05, 40)
        design = np.column_stack([np.ones(40), np.cos(chis), np.sin(chis)])
        c0, c1, c2 = np.linalg.lstsq(design, data, rcond=None)[0]
        res = fit_fringe(chis, data)
        assert res.phase == pytest.approx(np.arctan2(c2, c1), abs=1e-14)
        assert res.visibility == pytest.approx(np.hypot(c1, c2) / c0, abs=1e-14)

    @pytest.mark.parametrize("chis, message", [
        (RANK_DEFICIENT, "rank 2"), (TWO_DISTINCT, "3 distinct")])
    def test_unfittable_row_is_nan_in_a_batch_and_raises_alone(self, chis, message):
        good = fringes(np.random.default_rng(6), 1, CHI_GRID[:3])[0]
        bad = np.array([4.0, 0.0, 3.0])
        grids = np.stack([CHI_GRID[:3], chis])
        batch = fit_fringe(grids, np.stack([good, bad]))
        assert np.isnan(batch.phase).tolist() == [False, True]
        assert np.isnan(batch.visibility[1])
        assert batch.phase[0] == fit_fringe(CHI_GRID[:3], good).phase
        with pytest.raises(IllConditionedError, match=message):
            fit_fringe(chis, bad)
        shared = fit_fringe(chis, np.stack([bad, bad]))
        assert np.isnan(shared.phase).all() and np.isnan(shared.visibility).all()

    def test_flat_rows_are_undefined_not_nan_visibility(self):
        data = np.stack([np.full(64, 2.0), 2.0 + np.cos(CHI_GRID)])
        batch = fit_fringe(CHI_GRID, data)
        assert np.isnan(batch.phase).tolist() == [True, False]
        assert batch.visibility[0] < 1e-9

    @pytest.mark.parametrize("chis", [CHI_GRID, np.zeros((0, 64))])
    def test_empty_batch(self, chis):
        res = fit_fringe(chis, np.zeros((0, 64)))
        assert res.phase.shape == res.visibility.shape == (0,)

    def test_mismatched_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_fringe(CHI_GRID[:10], np.zeros((2, 64)))

    def test_batched_profile_on_a_rank_deficient_grid_is_nan(self):
        states = haar_state(np.random.default_rng(7), 2, (3,))
        profile = pure_interference_profile(states, states[::-1], RANK_DEFICIENT)
        assert profile.shape == (3, 3)
        fitted = fit_fringe(RANK_DEFICIENT, profile)
        assert np.isnan(fitted.phase).all() and np.isnan(fitted.visibility).all()


def random_setups(rng, k):
    """(theta, varphi0, varphi1), k rows each."""
    return (rng.uniform(0.0, np.pi, k), rng.uniform(-7.0, 7.0, k),
            rng.uniform(-7.0, 7.0, k))


def rows(setup, k):
    """The k setups of a batch, one (theta, varphi0, varphi1) each."""
    return [tuple(np.asarray(x)[i] for x in setup) for i in range(k)]


class TestDualKernels:
    def test_states_rowwise_bit_for_bit(self):
        theta, varphi0, varphi1 = setup = random_setups(np.random.default_rng(8), 40)
        singles = rows(setup, 40)
        psi = prepare_beam_state(theta)
        np.testing.assert_array_equal(psi,
                                      [prepare_beam_state(s[0]) for s in singles])
        np.testing.assert_array_equal(
            apply_arm_fields(psi, varphi0, varphi1),
            [apply_arm_fields(prepare_beam_state(t), v0, v1) for t, v0, v1 in singles])
        np.testing.assert_array_equal(predicted_final_state(*setup),
                                      [predicted_final_state(*s) for s in singles])
        for batch, want in zip(spatial_vectors(theta, varphi0 - varphi1),
                               zip(*[spatial_vectors(t, v0 - v1)
                                     for t, v0, v1 in singles])):
            np.testing.assert_array_equal(batch, want)

    def test_arm_fields_on_a_batch_of_states(self):
        rng = np.random.default_rng(9)
        psi = haar_state(rng, 4, (25,))
        setup = random_setups(rng, 25)
        got = apply_arm_fields(psi, *setup[1:])
        assert got.shape == (25, 4)
        for row, p, (_, v0, v1) in zip(got, psi, rows(setup, 25)):
            np.testing.assert_array_equal(row, apply_arm_fields(p, v0, v1))

    def test_spin_arm_rowwise(self):
        rng = np.random.default_rng(10)
        theta, varphi = rng.uniform(0.0, np.pi, 30), rng.uniform(-7.0, 7.0, 30)
        batch = spin_arm_states(theta, varphi)
        singles = [spin_arm_states(t, v) for t, v in zip(theta, varphi)]
        for got, want in zip(batch, zip(*singles)):
            np.testing.assert_array_equal(got, want)
        assert_rows_equal(dual_phase_closed_form(theta, varphi),
                          [dual_phase_closed_form(t, v)
                           for t, v in zip(theta, varphi)])

    def test_closed_forms_nan_in_a_batch_raise_alone(self):
        theta = np.array([np.pi / 2, 0.7])
        angle = np.array([np.pi, 1.1])
        res = dual_phase_closed_form(theta, angle)
        assert np.isnan(res.phase).tolist() == [True, False]
        assert res.phase[1] == dual_phase_closed_form(0.7, 1.1).phase
        with pytest.raises(OrthogonalStatesError):
            dual_phase_closed_form(np.pi / 2, np.pi)

    @pytest.mark.parametrize("channel", [+1, -1])
    def test_profile_rows_equal_single_profiles(self, channel):
        rng = np.random.default_rng(11)
        theta, dphi = rng.uniform(0.1, 3.0, 20), rng.uniform(-3.0, 3.0, 20)
        slot = 0 if channel == +1 else 1
        batch = analyser_intensities(theta, dphi, CHI_GRID)[slot]
        assert batch.shape == (20, 64)
        np.testing.assert_array_equal(
            batch, [analyser_intensities(t, d, CHI_GRID)[slot]
                    for t, d in zip(theta, dphi)])
        if channel == +1:
            assert_rows_equal(fit_fringe(CHI_GRID, batch),
                              [fit_fringe(CHI_GRID,
                                          analyser_intensities(t, d, CHI_GRID)[0])
                               for t, d in zip(theta, dphi)])

    def test_profile_theta_broadcasts_against_delta_phi(self):
        dphi = np.linspace(-2.0, 2.0, 5)
        batch = analyser_intensities(0.9, dphi, CHI_GRID)
        for slot in (0, 1):
            np.testing.assert_array_equal(
                batch[slot],
                [analyser_intensities(0.9, d, CHI_GRID)[slot] for d in dphi])

    def test_empty_batches(self):
        empty = np.zeros(0)
        assert apply_arm_fields(prepare_beam_state(empty), empty, empty).shape == (0, 4)
        assert predicted_final_state(empty, empty, empty).shape == (0, 4)
        assert dual_phase_closed_form(empty, empty).phase.shape == (0,)
        up, down = analyser_intensities(empty, empty, CHI_GRID)
        assert up.shape == down.shape == (0, 64)
        assert fit_fringe(CHI_GRID, up).phase.shape == (0,)

    def test_wrong_last_axis_rejected(self):
        with pytest.raises(ValueError):
            apply_arm_fields(np.zeros((3, 2)),
                             *random_setups(np.random.default_rng(0), 3)[1:])


def random_mixed(rng, k):
    axes = rng.standard_normal((k, 3))
    rho = qubit_density(rng.uniform(0.0, 1.0, k), axes)
    u = matrix_exponential_su2(rng.standard_normal((k, 3)), rng.uniform(-6.0, 6.0, k))
    return rho, u


class TestMixedKernels:
    def test_qubit_density_rowwise(self):
        rng = np.random.default_rng(12)
        r, axes = rng.uniform(-1.0, 1.0, 20), rng.standard_normal((20, 3))
        np.testing.assert_array_equal(
            qubit_density(r, axes), [qubit_density(x, a) for x, a in zip(r, axes)])
        assert qubit_density(r).shape == (20, 2, 2)
        with pytest.raises(ValueError):
            qubit_density(np.array([0.5, 1.5]))

    def test_phase_and_profile_rows_equal_single_calls(self):
        rho, u = random_mixed(np.random.default_rng(13), 30)
        assert_rows_equal(mixed_phase(rho, u),
                          [mixed_phase(r, v) for r, v in zip(rho, u)])
        np.testing.assert_array_equal(trace_overlap(rho, u),
                                      [trace_overlap(r, v) for r, v in zip(rho, u)])
        batch = mixed_interference_profile(rho, u, CHI_GRID)
        singles = [mixed_interference_profile(r, v, CHI_GRID) for r, v in zip(rho, u)]
        np.testing.assert_array_equal(batch, singles)
        assert_rows_equal(fit_fringe(CHI_GRID, batch),
                          [fit_fringe(CHI_GRID, s) for s in singles])

    def test_profile_equals_the_eigenvector_loop(self):
        rho, u = random_mixed(np.random.default_rng(14), 10)
        for r, v, got in zip(rho, u, mixed_interference_profile(rho, u, CHI_GRID)):
            weights, basis = np.linalg.eigh(r)
            want = np.zeros(64)
            for k in range(2):
                vec = basis[:, k]
                want += weights[k] * pure_interference_profile(vec, v @ vec, CHI_GRID)
            np.testing.assert_array_equal(got, want)

    def test_higher_dimensions(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        rho = m @ m.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        u = np.linalg.qr(rng.standard_normal((6, 3, 3))
                         + 1j * rng.standard_normal((6, 3, 3)))[0]
        batch = mixed_interference_profile(rho, u, CHI_GRID)
        closed = 2.0 + 2.0 * np.real(np.exp(1j * CHI_GRID)
                                     * np.conj(trace_overlap(rho, u))[:, None])
        np.testing.assert_allclose(batch, closed, rtol=0.0, atol=1e-13)

    def test_vanishing_trace_nan_in_a_batch_raises_alone(self):
        quarter = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        rho = np.stack([qubit_density(0.0), qubit_density(0.5)])
        res = mixed_phase(rho, quarter)
        assert np.isnan(res.phase).tolist() == [True, False]
        with pytest.raises(VanishingTraceError):
            mixed_phase(qubit_density(0.0), quarter)

    def test_empty_batches(self):
        rho, u = np.zeros((0, 2, 2)), np.zeros((0, 2, 2))
        assert mixed_phase(rho, u).phase.shape == (0,)
        assert mixed_interference_profile(rho, u, CHI_GRID).shape == (0, 64)
        assert qubit_density(np.zeros(0)).shape == (0, 2, 2)
