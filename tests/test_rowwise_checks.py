"""The fringe-fitting, dual and mixed checks run as array code over one
batch, on the draws written out here, and each still fails under a
planted fault; every sized check makes a fixed number of draws."""

import inspect

import numpy as np
import pytest

from pancha import checks, dual, phase
from pancha.core import haar_state, qubit_density
from pancha.phase import PhaseResult

SEEDS = (0, 20260809)

#: check -> (default n or None, threshold, mode)
PINNED = {
    checks.check_mixed_profile_routes: (200, 1e-9, "max"),
    checks.check_trace_basis_independence: (200, 1e-10, "max"),
    checks.check_dual_fringe: (None, 1e-8, "max"),
    checks.check_duality_identity: (None, 1e-10, "max"),
    checks.check_channel_sum: (None, 1e-10, "max"),
    checks.check_arm_unitarity: (500, 1e-12, "max"),
    checks.check_final_state_expansion: (200, 1e-10, "max"),
}


@pytest.mark.parametrize("check", list(PINNED), ids=lambda c: c.__name__)
def test_n_threshold_and_mode_are_pinned(check):
    n, threshold, mode = PINNED[check]
    params = inspect.signature(check).parameters
    assert (params["n"].default if "n" in params else None) == n
    if "n_chi" in params:
        assert params["n_chi"].default == 64
    for seed in SEEDS:
        result = check(seed)
        assert (result.threshold, result.mode, result.passed) == (threshold, mode, True)


# ---------------------------------------------------------------------------
# planted faults

def _fit_negated(monkeypatch):
    real = phase.fit_fringe

    def negated(chis, intensities):
        res = real(chis, intensities)
        return PhaseResult(-res.phase, res.visibility)

    for module in (phase, checks):
        monkeypatch.setattr(module, "fit_fringe", negated)


def _dual_closed_form_conjugated(monkeypatch):
    real = dual.tilted_overlap
    monkeypatch.setattr(dual, "tilted_overlap", lambda h, k: np.conj(real(h, k)))


def _channels_swapped(monkeypatch):
    real = dual._channel
    monkeypatch.setattr(dual, "_channel", lambda psi, slot: real(psi, 1 - slot))


def _arm_angle_sign_flipped(monkeypatch):
    real = dual.apply_arm_fields

    def flipped(psi, varphi0, varphi1):
        return real(psi, varphi0, -varphi1)

    for module in (dual, checks):
        monkeypatch.setattr(module, "apply_arm_fields", flipped)


def _lossy_arm_fields(monkeypatch):
    # a field rotation that loses 0.1 % of the amplitude is not unitary
    real = dual.apply_arm_fields
    for module in (dual, checks):
        monkeypatch.setattr(module, "apply_arm_fields",
                            lambda psi, v0, v1: 0.999 * real(psi, v0, v1))


def _trace_conjugated(monkeypatch):
    real = phase.trace_overlap
    monkeypatch.setattr(phase, "trace_overlap", lambda rho, u: np.conj(real(rho, u)))


#: each planted fault and the checks it must make FAIL
CAUGHT_BY = {
    _fit_negated: (checks.check_dual_fringe, checks.check_franson_fringe),
    _dual_closed_form_conjugated: (checks.check_dual_fringe,
                                   checks.check_duality_identity),
    _channels_swapped: (checks.check_dual_fringe,),
    # the analysers see |+z> rotated about x, whose channel weights are
    # even in the field angle: only the expansion check sees the sign
    _arm_angle_sign_flipped: (checks.check_final_state_expansion,),
    _lossy_arm_fields: (checks.check_arm_unitarity, checks.check_channel_sum,
                        checks.check_final_state_expansion),
    _trace_conjugated: (checks.check_mixed_profile_routes,
                        checks.check_trace_basis_independence,
                        checks.check_mixed_solid_angle_law),
}


@pytest.mark.parametrize("fault, check", [
    (fault, check) for fault, caught in CAUGHT_BY.items() for check in caught],
    ids=lambda x: x.__name__.strip("_"))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_fault_fails_the_check(monkeypatch, seed, fault, check):
    fault(monkeypatch)
    assert not check(seed).passed


def test_every_rewritten_check_catches_a_fault():
    caught = {check for checks_ in CAUGHT_BY.values() for check in checks_}
    assert set(PINNED) <= caught


# ---------------------------------------------------------------------------
# the draws each check makes, written out, with each instance's kernel
# inputs built one at a time from them

def _haar_unitary_one(m):
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def seeded_mixed_profile_inputs(seed, n=200):
    rng = np.random.default_rng([seed, 5])
    radii = rng.uniform(0.0, 1.0, n)
    radii[0] = 0.0  # the degenerate rho
    axes = rng.standard_normal((n, 3))
    re, im = rng.standard_normal((2, n, 2, 2))
    rhos = [qubit_density(r, axis / np.linalg.norm(axis))
            for r, axis in zip(radii, axes)]
    us = [_haar_unitary_one(m) for m in re + 1j * im]
    return [(np.array(rhos), np.array(us))]


def seeded_trace_basis_inputs(seed, n=200):
    rng = np.random.default_rng([seed, 7])
    dims = rng.integers(2, 5, n)
    groups = []
    for dim in (2, 3, 4):
        count = int(np.sum(dims == dim))
        all_weights = rng.dirichlet(np.ones(dim), count)
        basis_re, basis_im, u_re, u_im = rng.standard_normal((4, count, dim, dim))
        pairs = []
        for k, weights in enumerate(all_weights):
            basis = _haar_unitary_one(basis_re[k] + 1j * basis_im[k])
            u = _haar_unitary_one(u_re[k] + 1j * u_im[k])
            total = sum(w * np.vdot(basis[:, j], u @ basis[:, j])
                        for j, w in enumerate(weights))
            if abs(total) >= 1e-6:
                pairs.append(((basis * weights) @ basis.conj().T, u))
        groups.append(tuple(map(np.array, zip(*pairs))))
    return groups


def seeded_arm_inputs(seed, n=500):
    rng = np.random.default_rng([seed, 18])
    psi = haar_state(rng, 4, (n,))
    angles = rng.uniform((-2 * np.pi, -2 * np.pi), (2 * np.pi, 2 * np.pi), (n, 2)).T
    return [(psi, *angles)]  # field angles only: the fields take no tilt


def sequential_expansion_inputs(seed, n=200):
    rng = np.random.default_rng([seed, 19])
    draws = [(rng.uniform(0.0, np.pi), rng.uniform(-2 * np.pi, 2 * np.pi),
              rng.uniform(-2 * np.pi, 2 * np.pi)) for _ in range(n)]
    psi = [dual.prepare_beam_state(theta) for theta, _, _ in draws]
    return [(np.array(psi), *map(np.array, list(zip(*draws))[1:]))]


def _record(monkeypatch, module, name, unpack):
    real = getattr(module, name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(unpack(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorder)
    return calls


def _spec_args(psi, varphi0, varphi1):
    """The arguments of one ``apply_arm_fields`` call: states and field angles."""
    return (psi, varphi0, varphi1)


@pytest.mark.parametrize("check, kernel, unpack, reference", [
    (checks.check_mixed_profile_routes, "mixed_interference_profile",
     lambda rho, u, chis: (rho, u), seeded_mixed_profile_inputs),
    (checks.check_trace_basis_independence, "mixed_phase",
     lambda rho, u: (rho, u), seeded_trace_basis_inputs),
    (checks.check_arm_unitarity, "apply_arm_fields", _spec_args,
     seeded_arm_inputs),
    (checks.check_final_state_expansion, "apply_arm_fields", _spec_args,
     sequential_expansion_inputs),
], ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("seed", SEEDS)
def test_checks_see_the_sequential_draws(monkeypatch, seed, check, kernel, unpack,
                                         reference):
    calls = _record(monkeypatch, checks, kernel, unpack)
    assert check(seed).passed
    want = reference(seed)
    assert len(calls) == len(want)
    for got_args, want_args in zip(calls, want):
        for got, expected in zip(got_args, want_args):
            np.testing.assert_array_equal(got, expected)


def test_dual_grid_is_the_nested_loop_order():
    thetas = np.linspace(0.05, np.pi - 0.05, 20)
    dphis = np.linspace(-np.pi + 0.1, np.pi - 0.1, 20)
    theta, dphi = checks._dual_grid()
    np.testing.assert_array_equal(theta, [t for t in thetas for _ in dphis])
    np.testing.assert_array_equal(dphi, [d for _ in thetas for d in dphis])


# ---------------------------------------------------------------------------
# no per-instance kernel loops or draws

class CountingGenerator:
    """A numpy Generator that appends the name of each draw to ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return draw(*args, **kwargs)

        return counted


SIZED_CHECKS = [fn for fns in checks.SUITES.values() for fn in fns
                if "n" in inspect.signature(fn).parameters]


@pytest.mark.parametrize("check", SIZED_CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_calls_do_not_grow_with_n(monkeypatch, seed, check):
    real, calls = np.random.default_rng, []
    monkeypatch.setattr(checks.np.random, "default_rng",
                        lambda *args: CountingGenerator(real(*args), calls))
    n = inspect.signature(check).parameters["n"].default
    for size in (n, 2 * n):
        calls.clear()
        check(seed, n=size)
        # rejection sampling may redraw the rows it refused, a few rounds
        assert 1 <= len(calls) <= 8, (size, calls)


def test_fit_fringe_runs_once_per_profile():
    calls = []
    real = phase.fit_fringe

    def counted(chis, intensities):
        calls.append(np.shape(intensities))
        return real(chis, intensities)

    with pytest.MonkeyPatch.context() as mp:
        for module in (phase, checks):
            mp.setattr(module, "fit_fringe", counted)
        per_check = {}
        for fns in checks.SUITES.values():
            for fn in fns:
                calls.clear()
                fn(0)
                if calls:
                    per_check[fn.__name__] = len(calls)
        calls.clear()
        checks.run_suites("all", seed=0)
    assert per_check == {"check_franson_fringe": 1, "check_dual_fringe": 1}
    assert len(calls) == sum(per_check.values())


@pytest.mark.parametrize("check", list(PINNED), ids=lambda c: c.__name__)
def test_kernels_run_on_whole_batches(monkeypatch, check):
    counts = {}
    for name in ("apply_arm_fields", "prepare_beam_state", "predicted_final_state",
                 "spatial_vectors", "spin_arm_states", "fit_fringe",
                 "analyser_intensities", "dual_phase_closed_form", "pancharatnam_phase",
                 "mixed_phase", "mixed_interference_profile", "_trace_profile",
                 "qubit_density", "inner_product"):
        real = getattr(checks, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    check(0)
    assert counts and max(counts.values()) <= 3  # at most one call per dimension
