"""Inputs a kernel cannot give a defined answer for are refused, never
passed through: a single call raises, a batch marks the row NaN."""

import numpy as np
import pytest

from pancha import checks, experiments
from pancha.core import matrix_exponential_su2, qubit_density
from pancha.errors import UndefinedRatioError
from pancha.phase import mixed_interference_profile
from pancha.twophoton import nonlinearity_ratio

CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
pytestmark = pytest.mark.filterwarnings("error")


# ---------------------------------------------------------------------------
# nonlinearity ratio

@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_a_non_finite_lam_raises(lam):
    with pytest.raises(UndefinedRatioError, match="non-finite lam"):
        nonlinearity_ratio(lam, 0.3, 0.1)


def test_a_non_finite_lam_row_is_nan():
    lam = np.array([0.2, np.nan, 0.7, np.inf, -np.inf])
    got = nonlinearity_ratio(lam, 0.3, 0.1)
    assert np.isnan(got[[1, 3, 4]]).all()
    assert got[[0, 2]].tolist() == [nonlinearity_ratio(0.2, 0.3, 0.1),
                                    nonlinearity_ratio(0.7, 0.3, 0.1)]


# ---------------------------------------------------------------------------
# mixed profile

def stack(k=4):
    rng = np.random.default_rng(3)
    rho = qubit_density(rng.uniform(-1.0, 1.0, k), rng.standard_normal((k, 3)))
    u = matrix_exponential_su2(rng.standard_normal((k, 3)), rng.uniform(-6.0, 6.0, k))
    return rho, u


def spoil(rho, how):
    rho = rho.copy()
    if how == "nan above":  # eigh reads the lower triangle only
        rho[0, 1] = np.nan
    elif how == "inf on the diagonal":
        rho[1, 1] = np.inf
    elif how == "not hermitian above":
        rho[0, 1] += 1e-9
    else:
        rho[1, 0] += 2e-12j
    return rho


HOW = ["nan above", "inf on the diagonal", "not hermitian above",
       "not hermitian below"]


@pytest.mark.parametrize("how", HOW)
def test_a_bad_rho_raises_value_error(how):
    rho, u = stack()
    with pytest.raises(ValueError, match="finite and hermitian"):
        mixed_interference_profile(spoil(rho[0], how), u[0], CHI_GRID)


@pytest.mark.parametrize("how", HOW)
def test_a_bad_rho_row_is_nan_and_the_rest_are_single_calls(how):
    rho, u = stack()
    rho[2] = spoil(rho[2], how)
    batch = mixed_interference_profile(rho, u, CHI_GRID)
    assert np.isnan(batch.intensities[2]).all()
    assert not batch.extracted.defined[2]
    for row in (0, 1, 3):
        single = mixed_interference_profile(rho[row], u[row], CHI_GRID)
        assert batch.intensities[row].tobytes() == single.intensities.tobytes()


def test_a_rho_within_the_hermitian_tolerance_is_accepted():
    rho, u = stack()
    rho[0, 0, 1] += 1e-13
    assert np.isfinite(mixed_interference_profile(rho[0], u[0], CHI_GRID)
                       .intensities).all()


@pytest.fixture
def profiled_rhos(monkeypatch):
    """Every rho the check and run_mixed hand to the profile, with the
    largest distance of an entry from its conjugate transpose."""
    seen = []

    def spy(rho, u, chis):
        rho = np.asarray(rho)
        seen.append(np.abs(rho - rho.conj().swapaxes(-1, -2)).max())
        profile = mixed_interference_profile(rho, u, chis)
        assert np.isfinite(profile.intensities).all()
        return profile

    for module in (checks, experiments):
        monkeypatch.setattr(module, "mixed_interference_profile", spy)
    return seen


@pytest.mark.parametrize("seed", [0, 20260809])
def test_every_battery_rho_is_hermitian(profiled_rhos, seed):
    result = checks.check_mixed_profile_routes(seed)
    assert result.passed
    assert profiled_rhos and max(profiled_rhos) <= 1e-12


def test_every_run_mixed_rho_is_hermitian(profiled_rhos):
    rng = np.random.default_rng(4)
    for r in [-1.0, -0.3, 0.0, 0.5, 1.0, *rng.uniform(-1.0, 1.0, 20)]:
        outcome = experiments.run_mixed({
            "r": r, "angle": rng.uniform(-10.0, 10.0),
            "axis": tuple(rng.standard_normal(3)), "samples": 16})
        assert np.isfinite(outcome.profile.intensities).all()
    assert len(profiled_rhos) == 25 and max(profiled_rhos) <= 1e-12
