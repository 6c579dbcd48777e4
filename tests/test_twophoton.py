import numpy as np
import pytest

from pancha.core import BlochPoint, tensor, wrap_angle
from pancha.errors import (
    BranchAmbiguityError,
    OrthogonalStatesError,
    UndefinedRatioError,
)
from pancha.geometry import SphericalTriangle, mixed_solid_angle_phase, solid_angle
from pancha.phase import fit_fringe
from pancha.twophoton import (
    _pair_transport,
    ancilla_reduction_phase,
    entangled_phase_closed_form,
    franson_coincidence_profile,
    nonlinearity_ratio,
    simulate_loop_pair,
)

from oracles import product_loop_phase

NORTH = BlochPoint(0.0, 0.0)


def span_triangle(delta, start=0.0):
    """Pole triangle with equatorial azimuth span delta (area delta)."""
    return SphericalTriangle(NORTH, BlochPoint(np.pi / 2, start),
                             BlochPoint(np.pi / 2, start + delta))


def point_triangle(point=NORTH):
    return SphericalTriangle(point, point, point)


QUARTER_PAIR = (span_triangle(np.pi / 4), span_triangle(np.pi / 4, start=1.0))
CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


class TestDegreeOfEntanglement:
    """The tangent ratio of the entangled to the product phase is the
    degree of entanglement |1 - 2 lam|."""

    @pytest.mark.parametrize("lam,expected", [(1.0, 1.0), (0.5, 0.0),
                                              (0.25, 0.5), (0.0, 1.0)])
    def test_values(self, lam, expected):
        assert nonlinearity_ratio(lam, np.pi / 4, np.pi / 4) == (
            pytest.approx(expected))


class TestProductLoopPhase:
    """A product pair (lam = 1) picks up -(omega + omega')/2."""

    def test_no_loops(self):
        assert entangled_phase_closed_form(1.0, 0.0, 0.0).phase == 0.0

    def test_octant_pair(self):
        assert entangled_phase_closed_form(1.0, np.pi / 2, np.pi / 2).phase == (
            pytest.approx(-np.pi / 2))

    def test_opposite_orientations_cancel(self):
        assert entangled_phase_closed_form(1.0, np.pi / 2, -np.pi / 2).phase == (
            pytest.approx(0.0))


class TestEntangledClosedForm:
    def test_product_state_lambda_one(self):
        res = entangled_phase_closed_form(1.0, np.pi / 3, np.pi / 5)
        assert res.phase == pytest.approx(
            product_loop_phase(np.pi / 3, np.pi / 5), abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_product_state_lambda_zero(self):
        # the pair sits in the perpendicular components, which traverse
        # the opposite orientation; branch-equivalent to the lambda=1 case
        res = entangled_phase_closed_form(0.0, np.pi / 3, np.pi / 5)
        assert res.phase == pytest.approx(wrap_angle((np.pi / 3 + np.pi / 5) / 2),
                                          abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_quarter_entangled(self):
        res = entangled_phase_closed_form(0.25, np.pi / 4, np.pi / 4)
        assert res.phase == pytest.approx(np.arctan(0.5), abs=1e-12)
        assert res.phase == pytest.approx(0.46365, abs=5e-6)
        assert res.visibility == pytest.approx(np.sqrt(0.625), abs=1e-12)
        assert res.visibility == pytest.approx(0.79057, abs=5e-6)

    def test_maximally_entangled_pinned(self):
        res = entangled_phase_closed_form(0.5, np.pi / 8, np.pi / 8)
        assert res.phase == pytest.approx(0.0, abs=1e-15)
        assert res.visibility == pytest.approx(np.cos(np.pi / 8), abs=1e-12)
        flipped = entangled_phase_closed_form(0.5, np.pi, np.pi / 2)
        assert abs(flipped.phase) == pytest.approx(np.pi, abs=1e-12)

    def test_orthogonal_point_rejected(self):
        with pytest.raises(OrthogonalStatesError):
            entangled_phase_closed_form(0.5, np.pi / 2, np.pi / 2)

    def test_visibility_bound_with_equality_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            lam = rng.uniform(0.0, 1.0)
            total = rng.uniform(-2 * np.pi, 2 * np.pi)
            try:
                res = entangled_phase_closed_form(lam, total, 0.0)
            except OrthogonalStatesError:
                continue
            assert res.visibility <= 1.0 + 1e-12
        # equality iff product state or half-turn-free total area
        assert entangled_phase_closed_form(0.0, 1.1, 0.7).visibility == (
            pytest.approx(1.0, abs=1e-12))
        assert entangled_phase_closed_form(0.3, 2 * np.pi, 0.0).visibility == (
            pytest.approx(1.0, abs=1e-12))
        assert entangled_phase_closed_form(0.3, 1.0, 0.0).visibility < 1.0


class TestSimulateLoopPair:
    def test_identity_loops(self):
        res = simulate_loop_pair(0.3, point_triangle(),
                                 point_triangle(BlochPoint(1.0, 2.0)))
        assert res.phase == pytest.approx(0.0, abs=1e-12)
        assert res.visibility == pytest.approx(1.0, abs=1e-12)

    def test_quarter_entangled_matches_closed_form(self):
        res = simulate_loop_pair(0.25, *QUARTER_PAIR)
        assert res.phase == pytest.approx(0.46365, abs=1e-5)
        assert res.visibility == pytest.approx(0.79057, abs=1e-5)
        closed = entangled_phase_closed_form(0.25, np.pi / 4, np.pi / 4)
        assert abs(wrap_angle(res.phase - closed.phase)) < 1e-8
        assert res.visibility == pytest.approx(closed.visibility, abs=1e-8)

    def test_single_loop_product_state(self):
        res = simulate_loop_pair(1.0, span_triangle(np.pi / 4), point_triangle())
        assert res.phase == pytest.approx(-np.pi / 8, abs=1e-10)
        assert res.phase == pytest.approx(product_loop_phase(np.pi / 4, 0.0),
                                          abs=1e-10)

    def test_random_loops_match_closed_form(self):
        rng = np.random.default_rng(10)
        from pancha.core import haar_state, inner_product

        count = 0
        while count < 60:
            states = [haar_state(rng) for _ in range(6)]
            tri_a = SphericalTriangle.from_states(states[:3])
            tri_ap = SphericalTriangle.from_states(states[3:])
            overlaps = [abs(inner_product(states[i], states[j]))
                        for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 3)]]
            if min(overlaps) < 0.1:
                continue
            count += 1
            lam = rng.uniform(0.0, 1.0)
            closed = entangled_phase_closed_form(lam, solid_angle(tri_a),
                                                 solid_angle(tri_ap))
            if closed.visibility < 1e-6:
                continue
            sim = simulate_loop_pair(lam, tri_a, tri_ap)
            assert abs(wrap_angle(sim.phase - closed.phase)) < 1e-8
            assert sim.visibility == pytest.approx(closed.visibility, abs=1e-8)


class TestNonlinearityRatio:
    def test_product_state(self):
        assert nonlinearity_ratio(0.0, 0.9, 0.4) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_maximally_entangled(self):
        assert nonlinearity_ratio(0.5, 0.9, 0.4) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_quarter_entangled(self):
        got = nonlinearity_ratio(0.25, np.pi / 4, np.pi / 4)
        assert got == pytest.approx(np.tan(0.46364760900080604)
                                    / np.tan(np.pi / 4), abs=1e-10)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_vanishing_product_tangent_rejected(self):
        with pytest.raises(UndefinedRatioError):
            nonlinearity_ratio(0.25, 0.0, 0.0)

    def test_undefined_phase_rejected(self):
        with pytest.raises(UndefinedRatioError):
            nonlinearity_ratio(0.5, np.pi, 0.0)


class TestAncillaReduction:
    def test_pure_limit_octant(self):
        got = ancilla_reduction_phase(1.0, np.pi / 2)
        assert got == pytest.approx(-np.pi / 4, abs=1e-12)
        assert got == pytest.approx(mixed_solid_angle_phase(1.0, np.pi / 2),
                                    abs=1e-12)

    @pytest.mark.parametrize("omega", [-2.0, -0.5, 0.7, 2.4])
    def test_balanced_state_vanishes(self, omega):
        assert ancilla_reduction_phase(0.5, omega) == pytest.approx(0.0,
                                                                    abs=1e-15)

    def test_three_quarters(self):
        got = ancilla_reduction_phase(0.75, np.pi / 2)
        assert got == pytest.approx(np.arctan(-0.5), abs=1e-12)
        assert got == pytest.approx(-0.46365, abs=5e-6)

    def test_matches_mixed_phase_under_substitution(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = rng.uniform(0.0, 1.0)
            if abs(lam - 0.5) < 1e-3:
                continue
            omega = rng.uniform(-2 * np.pi + 0.1, 2 * np.pi - 0.1)
            got = ancilla_reduction_phase(lam, omega)
            want = mixed_solid_angle_phase(2.0 * lam - 1.0, omega)
            assert abs(wrap_angle(got - want)) < 1e-10

    def test_multiturn_rejected(self):
        with pytest.raises(BranchAmbiguityError):
            ancilla_reduction_phase(0.25, 2.0 * np.pi)


class TestFransonProfile:
    def test_identity_loops_constructive(self):
        profile = franson_coincidence_profile(0.3, point_triangle(),
                                              point_triangle(), CHI_GRID)
        assert profile[0] == pytest.approx(4.0, abs=1e-12)

    def test_flat_profile_at_orthogonality(self):
        profile = franson_coincidence_profile(
            0.5, span_triangle(np.pi / 2), span_triangle(np.pi / 2, start=2.0),
            CHI_GRID)
        np.testing.assert_allclose(profile, 2.0, atol=1e-12)
        assert np.isnan(fit_fringe(CHI_GRID, profile).phase)

    def test_quarter_entangled_extraction(self):
        fitted = fit_fringe(CHI_GRID, franson_coincidence_profile(0.25, *QUARTER_PAIR,
                                                                  CHI_GRID))
        assert fitted.phase == pytest.approx(0.46365, abs=1e-5)
        assert fitted.visibility == pytest.approx(0.79057, abs=1e-5)

    def test_swing_is_four_visibilities(self):
        closed = entangled_phase_closed_form(0.25, np.pi / 4, np.pi / 4)
        chis = np.concatenate([CHI_GRID, [closed.phase, closed.phase + np.pi]])
        profile = franson_coincidence_profile(0.25, *QUARTER_PAIR, chis)
        swing = profile.max() - profile.min()
        assert swing == pytest.approx(4.0 * closed.visibility, abs=1e-8)


class TestSchmidtState:
    """The pair vector sqrt(lam)|AA'> + sqrt(1-lam)|A_perp A'_perp> whose
    bases sit at the loops' start vertices."""

    def test_vector_is_normalized(self):
        initial, _ = _pair_transport(0.3, *QUARTER_PAIR)
        assert np.linalg.norm(initial) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            simulate_loop_pair(1.5, *QUARTER_PAIR)

    def test_bases_sit_at_the_start_vertices(self):
        initial, _ = _pair_transport(0.3, *QUARTER_PAIR)
        vertices = tensor(*(t.states[0] for t in QUARTER_PAIR))
        assert np.vdot(vertices, initial) == pytest.approx(np.sqrt(0.3), abs=1e-15)
