"""The battery registry: which checks ``pancha verify`` runs, in which
order, and the one verdict rule every check shares."""

import inspect

import numpy as np
import pytest

from pancha import checks
from pancha.transport import (
    PrecessionSpec,
    chain_phase,
    geodesic_closure_solid_angle,
    precession_path,
    precession_phase_closed_form,
    precession_phase_simulated,
)

REGISTRY = {
    "geometry": ("check_solid_angle_law", "check_additivity", "check_orientation",
                 "check_holonomy_spectrum"),
    "mixed": ("check_mixed_profile_routes", "check_mixed_solid_angle_law",
              "check_trace_basis_independence", "check_mixed_nonadditivity"),
    "two-photon": ("check_pair_oracle", "check_maximal_entanglement_quantisation",
                   "check_visibility_bound", "check_franson_fringe",
                   "check_nonlinearity_law", "check_ancilla_reduction"),
    "geometric-phase": ("check_lift_independence", "check_parallel_lift",
                        "check_cancellation_identity", "check_precession_three_way",
                        "check_chain_convergence", "check_mixed_noncyclic"),
    "dual": ("check_dual_fringe", "check_duality_identity", "check_channel_sum",
             "check_arm_unitarity", "check_final_state_expansion"),
}


def test_suites_hold_the_25_checks_in_order():
    assert list(checks.SUITES) == list(REGISTRY)
    assert {suite: tuple(fn.__name__ for fn in fns)
            for suite, fns in checks.SUITES.items()} == REGISTRY


def test_registered_checks_are_the_module_functions():
    for fns in checks.SUITES.values():
        for fn in fns:
            assert getattr(checks, fn.__name__) is fn


def test_zero_tol_scale_fails_all_but_the_two_exact_checks():
    results = checks.run_suites("all", seed=0, tol_scale=0)
    assert [r.suite for r in results] == [suite for suite, names in REGISTRY.items()
                                          for _ in names]
    passed = [r.name for r in results if r.passed]
    assert len(results) - len(passed) == 23
    assert passed == ["orientation antisymmetry (exact)",
                      "pair visibility bounded by one"]


FIXTURES = ("check_mixed_nonadditivity", "check_precession_three_way",
            "check_chain_convergence", "check_mixed_noncyclic", "check_dual_fringe",
            "check_duality_identity", "check_channel_sum")


def test_the_seedless_checks_are_the_fixtures():
    marked = {fn.__name__: fn.fixture for fns in checks.SUITES.values() for fn in fns}
    assert [name for name, fixture in marked.items() if fixture] == list(FIXTURES)
    results = checks.run_suites("all", seed=0)
    assert [r.fixture for r in results] == list(marked.values())


@pytest.mark.parametrize("name", FIXTURES)
def test_a_fixture_gives_the_same_stat_at_any_seed(name):
    fn = getattr(checks, name)
    first, second = fn(0), fn(1)
    assert float(first.stat).hex() == float(second.stat).hex()
    assert first == second


def test_one_suite_runs_its_checks_and_an_unknown_name_raises():
    results = checks.run_suites("mixed", seed=0, tol_scale=0)
    assert [r.suite for r in results] == ["mixed"] * len(REGISTRY["mixed"])
    with pytest.raises(KeyError, match=r"unknown suite 'spin'.*'dual'.*or 'all'"):
        checks.run_suites("spin")


@pytest.fixture
def registry(monkeypatch):
    """A fresh SUITES for batteries defined in a test."""
    monkeypatch.setattr(checks, "SUITES", {})
    return checks.SUITES


def battery(rows, mode="max", threshold=1.0):
    @checks._battery("test", "rows", threshold, mode)
    def check_rows(seed, n=3):
        yield from rows

    return check_rows


class TestVerdict:
    def test_registers_in_definition_order(self, registry):
        first, second = battery([[0.0]]), battery([[0.0]])
        assert registry == {"test": (first, second)}

    def test_signature_adds_tol_scale_after_seed(self, registry):
        params = inspect.signature(battery([[0.0]])).parameters
        assert list(params) == ["seed", "tol_scale", "n"]
        assert (params["tol_scale"].default, params["n"].default) == (1.0, 3)

    def test_sizes_reach_the_rows(self, registry):
        seen = []

        @checks._battery("test", "sizes", 1.0)
        def check_sizes(seed, n=3):
            seen.append((seed, n))
            yield [0.0]

        check_sizes(4)
        check_sizes(5, 1.0, 7)
        check_sizes(6, n=8)
        assert seen == [(4, 3), (5, 7), (6, 8)]

    def test_max_over_all_rows(self, registry):
        result = battery([np.array([0.1, 0.4]), np.array([[0.2], [0.3]])])(0)
        assert (result.stat, result.mode, result.passed) == (0.4, "max", True)

    def test_negative_stat_is_not_clamped(self, registry):
        assert battery([np.array([-3.0, -2.0])])(0).stat == -2.0

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_an_undefined_row_fails(self, registry, mode):
        result = battery([np.array([0.5, np.nan]), np.array([0.5])], mode, 0.5)(0)
        assert np.isnan(result.stat)
        assert not result.passed

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_no_rows_fails(self, registry, mode):
        result = battery([np.array([])], mode)(0)
        assert np.isnan(result.stat)
        assert not result.passed

    @pytest.mark.parametrize("scale, threshold, passed", [
        (1.0, 1e-3, True), (0.5, 5e-4, False), (0.0, 0.0, False)])
    def test_max_mode_scales_the_threshold(self, registry, scale, threshold, passed):
        result = battery([[8e-4]], threshold=1e-3)(0, tol_scale=scale)
        assert (result.threshold, result.passed) == (threshold, passed)

    @pytest.mark.parametrize("scale, threshold, passed", [
        (1.0, 2.0, True), (0.5, 4.0, False), (0.0, np.inf, False)])
    def test_min_mode_scales_the_stat(self, registry, scale, threshold, passed):
        result = battery([3.0], "min", 2.0)(0, tol_scale=scale)
        assert (result.stat, result.threshold, result.passed) == (3.0, threshold, passed)


def test_precession_budget_fractions_are_the_quotient_of_the_maxima():
    spec = PrecessionSpec(*np.array(checks.PRECESSION_GRID).T)
    closed = precession_phase_closed_form(spec)
    batch = precession_path(spec, 10_000)
    maxima = [np.max(np.abs(checks.wrap_angle(got - closed))) / budget
              for got, budget in ((precession_phase_simulated(spec), 1e-9),
                                  (chain_phase(batch), 1e-3),
                                  (-geodesic_closure_solid_angle(batch) / 2.0, 1e-4))]
    assert checks.check_precession_three_way(0).stat == max(maxima)
