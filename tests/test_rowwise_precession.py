"""The precession kernels, the geodesic closure, the nonlinearity ratio and
the mixed profile work row by row like every other kernel: batched rows
equal single calls, rows a single call would raise on are NaN, and empty
batches pass through.  The four checks that used to loop over these
kernels make one call per route, on the draws of one instance at a time,
and still fail under a planted fault."""

import inspect
import warnings

import numpy as np
import pytest

from pancha import checks, transport
from pancha.core import (
    BlochPoint,
    bloch_to_state,
    matrix_exponential_su2,
    orthogonal_complement,
    qubit_density,
)
from pancha.errors import (
    AntipodalEndpointsError,
    BranchAmbiguityError,
    DegenerateTriangleError,
    OrthogonalStatesError,
    UndefinedRatioError,
)
from pancha.geometry import SphericalTriangle
from pancha.phase import fit_fringe, mixed_interference_profile
from pancha.transport import (
    DiscretePath,
    PrecessionSpec,
    geodesic_closure_solid_angle,
    mixed_noncyclic_phase,
    precession_comparison_unitary,
    precession_path,
    precession_phase_closed_form,
    precession_phase_simulated,
    sample_triangle_path,
)
from pancha.twophoton import nonlinearity_ratio

SEEDS = (0, 20260809)
GRID = PrecessionSpec(*np.array(checks.PRECESSION_GRID).T)
CHI_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
B = transport._BLOCK


def single_specs(spec):
    """The rows of a batched spec, as specs of floats."""
    rows = np.broadcast_arrays(spec.theta, spec.phi, spec.r)
    return [PrecessionSpec(*map(float, row)) for row in zip(*(a.ravel() for a in rows))]


def random_specs(seed, k):
    rng = np.random.default_rng(seed)
    theta, phi, r = rng.uniform((0.0, -2.0 * np.pi, 0.05), (np.pi, 2.0 * np.pi, 1.0),
                                (k, 3)).T
    return PrecessionSpec(theta, phi, r)


# ---------------------------------------------------------------------------
# precession kernels

class TestPrecessionKernels:
    @pytest.mark.parametrize("kernel", [precession_phase_closed_form,
                                        precession_phase_simulated,
                                        mixed_noncyclic_phase],
                             ids=lambda k: k.__name__)
    def test_rows_equal_single_calls_bit_for_bit(self, kernel):
        spec = random_specs(1, 300)
        want = [kernel(s) for s in single_specs(spec)]
        assert all(type(w) is float for w in want)
        np.testing.assert_array_equal(kernel(spec), want)

    def test_comparison_unitary_is_stacked(self):
        spec = random_specs(2, 50)
        got = precession_comparison_unitary(spec)
        assert got.shape == (50, 2, 2)
        np.testing.assert_array_equal(
            got, [precession_comparison_unitary(s) for s in single_specs(spec)])

    def test_grid_angles_broadcast_against_radii(self):
        radii = np.array(checks.BLOCH_RADII)
        spec = PrecessionSpec(GRID.theta[:, None], GRID.phi[:, None], radii)
        got = mixed_noncyclic_phase(spec)
        assert got.shape == (12, 3)
        np.testing.assert_array_equal(got.ravel(),
                                      [mixed_noncyclic_phase(s) for s in single_specs(spec)])
        assert precession_comparison_unitary(spec).shape == (12, 1, 2, 2)

    def test_multiturn_rows_nan_in_a_batch_raise_alone(self):
        spec = PrecessionSpec(np.full(3, 0.7), np.array([1.0, 2.0 * np.pi, -7.0]), 0.5)
        for kernel in (precession_phase_closed_form, mixed_noncyclic_phase):
            assert np.isnan(kernel(spec)).tolist() == [False, True, True]
            with pytest.raises(BranchAmbiguityError):
                kernel(PrecessionSpec(0.7, 2.0 * np.pi, 0.5))
        # a scalar angle against array tilts is a batch too
        assert np.isnan(precession_phase_closed_form(
            PrecessionSpec(np.array([0.1, 0.2]), 7.0))).all()

    def test_vanishing_overlap_nan_in_a_batch_raises_alone(self):
        spec = PrecessionSpec(np.array([0.3, np.pi / 2]), np.array([1.0, np.pi]))
        got = precession_phase_simulated(spec)
        assert got[0] == precession_phase_simulated(PrecessionSpec(0.3, 1.0))
        assert np.isnan(got[1])
        with pytest.raises(OrthogonalStatesError):
            precession_phase_simulated(PrecessionSpec(np.pi / 2, np.pi))

    def test_empty_batches(self):
        spec = PrecessionSpec(np.zeros(0), np.zeros(0), np.zeros(0))
        assert precession_phase_closed_form(spec).shape == (0,)
        assert precession_phase_simulated(spec).shape == (0,)
        assert precession_comparison_unitary(spec).shape == (0, 2, 2)


# ---------------------------------------------------------------------------
# geodesic closure

def _triangle_batch(seed, k, n):
    """k triangle paths of n steps, one at a time, and as one batch."""
    rng = np.random.default_rng(seed)
    paths = [sample_triangle_path(SphericalTriangle(*(
        BlochPoint(*rng.uniform((0.2, 0.0), (2.9, 2.0 * np.pi))) for _ in range(3))), n)
        for _ in range(k)]
    return paths, DiscretePath(paths[0].times, np.stack([p.states for p in paths]))


class TestGeodesicClosure:
    def test_batch_rows_within_1e12_of_single_calls(self):
        batch = precession_path(GRID, 10_000)
        singles = [precession_path(spec, 10_000) for spec in single_specs(GRID)]
        triangles, triangle_batch = _triangle_batch(3, 5, 30_000)
        for paths, together in ((singles, batch), (triangles, triangle_batch)):
            got = geodesic_closure_solid_angle(together)
            np.testing.assert_allclose(got, [geodesic_closure_solid_angle(p)
                                             for p in paths], rtol=0.0, atol=1e-12)

    def test_two_batch_axes(self):
        batch = precession_path(GRID, 1000)
        grid = precession_path(PrecessionSpec(GRID.theta.reshape(3, 4),
                                              GRID.phi.reshape(3, 4)), 1000)
        got = geodesic_closure_solid_angle(grid)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got.ravel(), geodesic_closure_solid_angle(batch))

    @pytest.mark.parametrize("path, want", [
        (lambda: precession_path(PrecessionSpec(1.1, 2.2), 10_000),
         "0x1.d4f39a72ce6a2p-2"),
        (lambda: precession_path(PrecessionSpec(0.4, -5.0), 30_000),
         "-0x1.e3e55f9ee3b44p-2"),
        (lambda: sample_triangle_path(SphericalTriangle(
            BlochPoint(0.3, 0.2), BlochPoint(1.2, 1.9), BlochPoint(2.0, 4.0)), 20_000),
         "0x1.6247fa07d0086p+1"),
    ])
    def test_single_path_keeps_its_value_bit_for_bit(self, path, want):
        # the values of the one-path kernel with 8,192-segment blocks
        got = geodesic_closure_solid_angle(path())
        assert type(got) is float and got == float.fromhex(want)

    @pytest.mark.parametrize("index", [7, B + 7, -1])
    def test_faults_give_nan_rows_and_leave_the_others(self, index):
        base = bloch_to_state(BlochPoint(np.full(B + 21, 1.0), np.linspace(0.0, 2.0, B + 21)))
        south, antipodal_neighbour, antipodal_ends = (base.copy() for _ in range(3))
        south[index] = (0.0, 1.0)
        antipodal_neighbour[index] = orthogonal_complement(base[index - 1])
        antipodal_ends[-1] = orthogonal_complement(base[0])
        times = np.linspace(0.0, 1.0, B + 21)
        clean = geodesic_closure_solid_angle(DiscretePath(times, np.stack([base] * 4)))
        faulty = [south, antipodal_neighbour, antipodal_ends]
        got = geodesic_closure_solid_angle(DiscretePath(times, np.stack([base] + faulty)))
        assert np.isnan(got).tolist() == [False, True, True, True]
        assert got[0] == clean[0]
        for states, error in zip(faulty, (DegenerateTriangleError, DegenerateTriangleError,
                                          AntipodalEndpointsError)):
            with pytest.raises(error):
                geodesic_closure_solid_angle(DiscretePath(times, states))

    def test_empty_batch_and_non_qubit_paths(self):
        times = np.linspace(0.0, 1.0, 3)
        empty = DiscretePath(times, np.zeros((0, 3, 2), dtype=complex))
        assert geodesic_closure_solid_angle(empty).shape == (0,)
        qutrit = DiscretePath(times, np.tile([1.0, 0.0, 0.0], (3, 1)))
        with pytest.raises(ValueError, match="qubit"):
            geodesic_closure_solid_angle(qutrit)


# ---------------------------------------------------------------------------
# nonlinearity ratio

#: single (lam, omega, omega') triples that raise, with the reason
UNDEFINED_RATIOS = [
    ((0.5, np.pi / 2, np.pi / 2), "vanishing visibility"),
    ((0.3, 0.4, -0.4), "product-phase tangent vanishes"),
]


class TestNonlinearityRatio:
    def test_rows_equal_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(4)
        draws = rng.uniform((0.0, -2.0 * np.pi, -2.0 * np.pi),
                            (1.0, 2.0 * np.pi, 2.0 * np.pi), (1000, 3))
        draws[[10, 20]] = [triple for triple, _ in UNDEFINED_RATIOS]
        want = []
        for triple in draws:
            try:
                want.append(nonlinearity_ratio(*map(float, triple)))
            except UndefinedRatioError:
                want.append(np.nan)
        assert all(type(w) is float for w in want)
        got = nonlinearity_ratio(*draws.T)
        np.testing.assert_array_equal(got, want)
        assert np.flatnonzero(np.isnan(got)).tolist() == [10, 20]

    @pytest.mark.parametrize("triple, reason", UNDEFINED_RATIOS)
    def test_single_call_raises(self, triple, reason):
        with pytest.raises(UndefinedRatioError, match=reason):
            nonlinearity_ratio(*triple)

    @pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan])
    def test_non_finite_angle_raises_alone_and_is_nan_in_a_batch(self, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedRatioError, match="non-finite"):
                nonlinearity_ratio(0.3, omega, 0.1)
            got = nonlinearity_ratio(0.3, np.array([0.5, omega, 1.0]), 0.1)
        assert np.isnan(got).tolist() == [False, True, False]
        assert got[[0, 2]].tolist() == [nonlinearity_ratio(0.3, 0.5, 0.1),
                                        nonlinearity_ratio(0.3, 1.0, 0.1)]

    def test_arguments_broadcast(self):
        lam = np.array([0.1, 0.5, 0.9])
        assert nonlinearity_ratio(lam, 0.3, 0.4).shape == (3,)
        got = nonlinearity_ratio(0.2, np.array([[0.3], [0.0]]), np.array([0.4, 0.0]))
        assert got.shape == (2, 2) and np.isnan(got[1, 1]) and not np.isnan(got[0]).any()


# ---------------------------------------------------------------------------
# mixed profile

def test_mixed_profile_marks_a_failed_eigendecomposition_nan():
    rng = np.random.default_rng(5)
    axes = rng.standard_normal((5, 3))
    rho = qubit_density(rng.uniform(0.1, 0.9, 5), axes / np.linalg.norm(axes, axis=1)[:, None])
    rho[2] = np.nan
    u = matrix_exponential_su2((1.0, 0.0, 0.0), rng.uniform(0.0, 3.0, 5))
    batch = mixed_interference_profile(rho, u, CHI_GRID)
    fitted = fit_fringe(CHI_GRID, batch)
    assert np.isnan(batch[2]).all()
    assert np.isnan([fitted.phase[2], fitted.visibility[2]]).all()
    for row in (0, 1, 3, 4):
        single = mixed_interference_profile(rho[row], u[row], CHI_GRID)
        assert batch[row].tobytes() == single.tobytes()
        single_fit = fit_fringe(CHI_GRID, single)
        for field in ("phase", "visibility"):
            assert getattr(fitted, field)[row] == getattr(single_fit, field)
    with pytest.raises(np.linalg.LinAlgError):
        mixed_interference_profile(rho[2], u[2], CHI_GRID)


# ---------------------------------------------------------------------------
# the four checks

#: check -> (size argument and its default or None, threshold, mode)
PINNED = {
    checks.check_precession_three_way: (("n_steps", 10_000), 1.0, "max"),
    checks.check_chain_convergence: (("n_coarse", 1000), 1.9, "min"),
    checks.check_mixed_noncyclic: (None, 1e-8, "max"),
    checks.check_nonlinearity_law: (("n", 500), 1e-10, "max"),
}


@pytest.mark.parametrize("check", list(PINNED), ids=lambda c: c.__name__)
def test_size_threshold_and_mode_are_pinned(check):
    size, threshold, mode = PINNED[check]
    params = inspect.signature(check).parameters
    assert set(params) - {"seed", "tol_scale"} == ({size[0]} if size else set())
    if size:
        assert params[size[0]].default == size[1]
    for seed in SEEDS:
        result = check(seed)
        assert (result.threshold, result.mode, result.passed) == (threshold, mode, True)


def _closure_sign_flipped(monkeypatch):
    real = transport.geodesic_closure_solid_angle
    monkeypatch.setattr(checks, "geodesic_closure_solid_angle", lambda p: -real(p))


def _ratio_scaled(monkeypatch):
    real = checks.nonlinearity_ratio
    monkeypatch.setattr(checks, "nonlinearity_ratio", lambda *a: 1.001 * real(*a))


def _closed_form_conjugated(monkeypatch):
    real = transport.tilted_overlap
    monkeypatch.setattr(transport, "tilted_overlap", lambda h, k: np.conj(real(h, k)))


def _mixed_radius_negated(monkeypatch):
    real = transport.mixed_solid_angle_phase
    monkeypatch.setattr(transport, "mixed_solid_angle_phase", lambda r, w: real(-r, w))


#: each planted fault and the checks it must make FAIL
CAUGHT_BY = {
    _closure_sign_flipped: (checks.check_precession_three_way,),
    _ratio_scaled: (checks.check_nonlinearity_law,),
    _closed_form_conjugated: (checks.check_precession_three_way,
                              checks.check_chain_convergence,
                              checks.check_mixed_noncyclic),
    _mixed_radius_negated: (checks.check_mixed_noncyclic,),
}


@pytest.mark.parametrize("fault, check", [
    (fault, check) for fault, caught in CAUGHT_BY.items() for check in caught],
    ids=lambda x: x.__name__.strip("_"))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_fault_fails_the_check(monkeypatch, seed, fault, check):
    fault(monkeypatch)
    assert not check(seed).passed


def test_every_rewritten_check_catches_a_fault():
    assert set(PINNED) == {c for caught in CAUGHT_BY.values() for c in caught}


#: kernel calls per check: one per route, never one per instance
CALLS = {
    checks.check_precession_three_way: {
        "precession_phase_closed_form": 1, "precession_phase_simulated": 1,
        "chain_phase": 1, "geodesic_closure_solid_angle": 1},
    checks.check_chain_convergence: {"precession_phase_closed_form": 1,
                                     "chain_phase": 2},  # one per step size
    checks.check_mixed_noncyclic: {"mixed_noncyclic_phase": 1,
                                   "precession_comparison_unitary": 1,
                                   "mixed_phase": 1},
    checks.check_nonlinearity_law: {"nonlinearity_ratio": 1},
}


@pytest.mark.parametrize("check", list(CALLS), ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_one_kernel_call_per_route(monkeypatch, seed, check):
    counts = {}
    for name in ("precession_phase_closed_form", "precession_phase_simulated",
                 "precession_comparison_unitary", "mixed_noncyclic_phase",
                 "geodesic_closure_solid_angle", "chain_phase", "mixed_phase",
                 "nonlinearity_ratio"):
        real = getattr(checks, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(checks, name, counted)
    assert check(seed).passed
    assert counts == CALLS[check]


def sequential_ratio_draws(seed, n, rejected):
    """The (lam, omega, omega') triples that drawing one at a time keeps,
    skipping those whose ratio raises or that ``rejected`` refuses, and
    the generator's final state."""
    rng = np.random.default_rng([seed, 13])
    kept = []
    while len(kept) < n:
        lam = rng.uniform(0.0, 1.0)
        omega = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        omega_p = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        try:
            nonlinearity_ratio(lam, omega, omega_p)
        except UndefinedRatioError:
            continue
        if not rejected(lam):
            kept.append((lam, omega, omega_p))
    return np.array(kept), rng.bit_generator.state


@pytest.mark.parametrize("rejected", [lambda lam: False, lambda lam: lam < 0.3],
                         ids=["as drawn", "lam below 0.3 refused"])
@pytest.mark.parametrize("seed", SEEDS)
def test_nonlinearity_law_sees_the_sequential_draws(monkeypatch, seed, rejected):
    n = 500
    want, want_state = sequential_ratio_draws(seed, n, rejected)
    kept, made = [], []
    real_rng, real_ratio = np.random.default_rng, checks.nonlinearity_ratio

    def recording_rng(*args):
        made.append(real_rng(*args))
        return made[-1]

    def ratio(lam, omega, omega_p):
        got = np.where(rejected(lam), np.nan, real_ratio(lam, omega, omega_p))
        kept.append(np.stack([lam, omega, omega_p], axis=-1)[~np.isnan(got)])
        return got

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(checks, "nonlinearity_ratio", ratio)
    assert checks.check_nonlinearity_law(seed, n=n).passed
    np.testing.assert_array_equal(np.concatenate(kept), want)
    assert len(made) == 1 and made[0].bit_generator.state == want_state
