import numpy as np
import pytest

from pancha import checks, geometry
from pancha.phase import tilted_overlap

from oracles import random_smooth_path


def stub_raising_once(monkeypatch, exc):
    """Replace nonlinearity_ratio in the battery by one whose first call raises."""
    real = checks.nonlinearity_ratio
    calls = []

    def stub(*args):
        calls.append(args)
        if len(calls) == 1:
            raise exc
        return real(*args)

    monkeypatch.setattr(checks, "nonlinearity_ratio", stub)
    return calls


class TestNonlinearityLaw:
    def test_unexpected_error_propagates(self, monkeypatch):
        stub_raising_once(monkeypatch, TypeError("bug in the ratio"))
        with pytest.raises(TypeError):
            checks.check_nonlinearity_law(0, n=5)

    def test_undefined_ratio_rows_are_redrawn(self, monkeypatch):
        real = checks.nonlinearity_ratio
        calls = []

        def first_row_undefined(lam, omega, omega_prime):
            calls.append(len(lam))
            ratio = real(lam, omega, omega_prime)
            if len(calls) == 1:
                ratio[0] = np.nan
            return ratio

        monkeypatch.setattr(checks, "nonlinearity_ratio", first_row_undefined)
        assert checks.check_nonlinearity_law(0, n=5).passed
        assert calls == [5, 1]

    @pytest.mark.parametrize("seed", [0, 20260809])
    def test_closed_form_ratio_is_held_against_the_pair(self, monkeypatch, seed):
        monkeypatch.setattr(checks, "nonlinearity_ratio",
                            lambda lam, omega, omega_prime: np.abs(1.0 - 2.0 * lam))
        assert 0.0 < checks.check_nonlinearity_law(seed).stat <= 1e-10


class TestTolScale:
    @pytest.mark.parametrize("check", [checks.check_mixed_nonadditivity,
                                       checks.check_chain_convergence])
    @pytest.mark.parametrize("scale, passed", [(0.0, False), (1.0, True)])
    def test_min_mode_checks_are_scaled(self, check, scale, passed):
        result = check(0, tol_scale=scale)
        assert result.mode == "min"
        assert result.passed is passed
        assert (result.stat >= result.threshold) is passed


def test_duality_identity_compares_independent_routes():
    result = checks.check_duality_identity(0)
    assert result.passed
    assert 0.0 < result.stat <= 1e-10


class TestAncillaReduction:
    def test_simulated_route_is_independent(self):
        result = checks.check_ancilla_reduction(0)
        assert result.passed
        assert 0.0 < result.stat <= 1e-10

    def test_conjugated_law_fails(self, monkeypatch):
        def conjugate(half, k):
            return tilted_overlap(half, k).conjugate()

        monkeypatch.setattr(geometry, "tilted_overlap", conjugate)
        assert not checks.check_ancilla_reduction(0).passed


def test_smooth_path_generators_are_not_copied():
    path = random_smooth_path(np.random.default_rng(3), n=100)
    assert path.generators.strides[0] == 0


def test_every_check_passes_with_a_finite_stat_at_seeds_0_to_19():
    # a range of seeds, not a few chosen ones: any failing seed shows here
    failed = [(seed, result.name, result.stat)
              for seed in range(20)
              for result in checks.run_suites("all", seed=seed)
              if not (result.passed and np.isfinite(result.stat))]
    assert failed == []
