"""Paths as validated values with one hamiltonian, the batched transport
kernels, and the path checks rewritten over them.

A DiscretePath is checked once, when it is made; the kernels take leading
batch axes, agree with their single-path calls row by row and mark the
rows a single call would raise on; the batched path checks draw their
inputs in the blocks written out here (one block of generators equals
one-at-a-time drawing) and still fail when a kernel is broken.
"""

import inspect
import subprocess
import sys

import numpy as np
import pytest

from pancha import checks, transport
from pancha.core import _dot, haar_state
from pancha.errors import OrthogonalStatesError, VanishingEndpointOverlapError
from pancha.transport import (
    DiscretePath,
    PrecessionSpec,
    chain_phase,
    dynamical_phase,
    geodesic_closure_solid_angle,
    is_parallel_lift,
    make_parallel_lift,
    pancharatnam_vs_auxiliary,
    precession_hamiltonian,
    precession_path,
)

from oracles import random_smooth_path

STEPS = np.linspace(0.0, 1.0, 3)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
#: a link through orthogonal states, and endpoints that are orthogonal
ORTHOGONAL_LINK = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=complex)
ORTHOGONAL_ENDS = np.array([[1.0, 0.0], PLUS, [0.0, 1.0]], dtype=complex)


def smooth_batch(seed, count, n=50, dim=2):
    """``count`` random smooth paths drawn one at a time, and the same
    paths as one batch."""
    rng = np.random.default_rng(seed)
    singles = [random_smooth_path(rng, n=n, dim=dim) for _ in range(count)]
    batch = DiscretePath(singles[0].times, np.stack([p.states for p in singles]),
                         np.stack([p.hamiltonian for p in singles]))
    return singles, batch


def one_generator(rng, dim=2):
    """One hermitian generator and Haar start state, drawn one instance at
    a time as the path checks used to draw them."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0, haar_state(rng, dim)


def block_generators(rng, n, dim=2):
    """n generators and start states from one (n, 2 dim^2 + 2 dim) normal
    block: each row a complex Gaussian's real then imaginary parts, then
    the start state's, normalised as haar_state normalises."""
    z = rng.standard_normal((n, 2 * dim * dim + 2 * dim))
    square = dim * dim
    m = (z[:, :square].reshape(n, dim, dim)
         + 1j * z[:, square:2 * square].reshape(n, dim, dim))
    re, im = z[:, 2 * square:2 * square + dim], z[:, 2 * square + dim:]
    psi0 = (re + 1j * im) / np.sqrt(_dot(re, re) + _dot(im, im))[:, None]
    return (m + m.conj().transpose(0, 2, 1)) / 2.0, psi0


def matmul_evolution(h, psi0, n):
    """The states of one path evolved by the matrix products the path
    checks used to form."""
    evals, evecs = np.linalg.eigh(h)
    times = np.linspace(0.0, 1.0, n + 1)
    phases = np.exp(-1j * np.outer(times, evals))
    return (evecs * phases[:, None, :]) @ (evecs.conj().T @ psi0)


def einsum_energy_phase(path):
    """The dynamical phase from a general contraction over every sample's
    generator, as it used to be computed."""
    energies = np.einsum("ij,ijk,ik->i", path.states.conj(), path.generators,
                         path.states).real
    return float(-np.trapezoid(energies, path.times))


class TestValidatedAtConstruction:
    @pytest.mark.parametrize("times, states, message", [
        (np.zeros((2, 2)), np.eye(2), "times must be 1-d and states 2-d"),
        (STEPS, PLUS, "times must be 1-d and states 2-d"),
        (STEPS, np.tile(PLUS, (2, 1)), "one state per time"),
        ([0.0], PLUS[None, :], "at least two samples"),
        ([0.0, 0.5, 0.4], np.tile(PLUS, (3, 1)), "strictly increasing"),
        ([0.0, 0.5, 0.5], np.tile(PLUS, (3, 1)), "strictly increasing"),
        (STEPS, np.tile(2.0 * PLUS, (3, 1)), "unit vectors"),
        (STEPS, np.tile(PLUS, (4, 3, 1)) * [[[1.0]], [[1.0]], [[1.0 + 1e-8]], [[1.0]]],
         "unit vectors"),
    ])
    def test_bad_paths_raise_when_made(self, times, states, message):
        with pytest.raises(ValueError, match=message):
            DiscretePath(times, states)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (1, 2, 2), (5, 2, 2)])
    def test_hamiltonian_of_the_wrong_shape(self, shape):
        states = np.tile(PLUS, (4, 3, 1))  # a batch of four paths
        with pytest.raises(ValueError, match="hamiltonian must have shape"):
            DiscretePath(STEPS, states, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2, 2)])
    def test_one_hamiltonian_or_one_per_path(self, shape):
        path = DiscretePath(STEPS, np.tile(PLUS, (4, 3, 1)), np.zeros(shape))
        assert path.generators.shape == (4, 3, 2, 2)
        assert path.generators.strides[-3] == 0
        assert not path.generators.flags.writeable

    def test_paths_are_frozen(self):
        path = precession_path(PrecessionSpec(0.4, 1.0), 8)
        with pytest.raises(AttributeError):
            path.states = path.states[::-1]
        assert DiscretePath(path.times, path.states).generators is None

    def test_undefined_rows_are_not_checked(self):
        states = np.tile(PLUS, (2, 3, 1))
        states[0] = np.nan
        DiscretePath(STEPS, states)
        states[1, 1] *= 2.0
        with pytest.raises(ValueError, match="unit vectors"):
            DiscretePath(STEPS, states)

    def test_no_kernel_validates_again(self, monkeypatch):
        _, batch = smooth_batch(1, 3)
        single = precession_path(PrecessionSpec(0.7, 2.0), 64)
        calls = []
        real = DiscretePath.validate
        monkeypatch.setattr(DiscretePath, "validate",
                            lambda self: calls.append(self) or real(self))
        for path in (batch, single):
            chain_phase(path)
            is_parallel_lift(path, 1e-10)
            dynamical_phase(path)
            dynamical_phase(DiscretePath(path.times, path.states))
            pancharatnam_vs_auxiliary(path)
        calls.clear()  # the two hamiltonian-free paths made above
        geodesic_closure_solid_angle(single)
        assert calls == []
        lifted = make_parallel_lift(single)
        assert calls == [lifted]  # made, so checked once, and no more


def test_negative_angle_runs_forward_under_minus_h():
    spec = PrecessionSpec(0.8, -2.5)
    path = precession_path(spec, 200)
    forward = precession_path(PrecessionSpec(0.8, 2.5), 200)
    assert path.times.tobytes() == forward.times.tobytes()
    np.testing.assert_array_equal(path.hamiltonian, -precession_hamiltonian(0.8))
    assert dynamical_phase(path) == pytest.approx(-0.5 * spec.phi * np.cos(0.8),
                                                  abs=1e-12)
    with pytest.raises(ValueError, match="strictly increasing"):
        precession_path(PrecessionSpec(0.8, 0.0), 10)


class TestBatchedRowsMatchSingleCalls:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_chain_and_lift_bit_for_bit(self, dim):
        singles, batch = smooth_batch(2, 6, dim=dim)
        np.testing.assert_array_equal(chain_phase(batch),
                                      [chain_phase(p) for p in singles])
        lifted = make_parallel_lift(batch)
        for row, path in zip(lifted.states, singles):
            assert row.tobytes() == make_parallel_lift(path).states.tobytes()
        assert is_parallel_lift(lifted, 1e-10).tolist() == [True] * 6
        assert is_parallel_lift(batch, 1e-10).tolist() == [
            is_parallel_lift(p, 1e-10) for p in singles]
        np.testing.assert_array_equal(dynamical_phase(lifted),
                                      [dynamical_phase(make_parallel_lift(p))
                                       for p in singles])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_hamiltonian_routes(self, dim):
        singles, batch = smooth_batch(3, 6, dim=dim)
        for kernel in (dynamical_phase, pancharatnam_vs_auxiliary):
            np.testing.assert_allclose(kernel(batch), [kernel(p) for p in singles],
                                       rtol=0.0, atol=1e-15)
        shared = DiscretePath(batch.times, batch.states, singles[0].hamiltonian)
        np.testing.assert_allclose(
            dynamical_phase(shared),
            [dynamical_phase(DiscretePath(p.times, p.states, singles[0].hamiltonian))
             for p in singles], rtol=0.0, atol=1e-15)

    def test_two_batch_axes(self):
        singles, batch = smooth_batch(4, 6)
        grid = DiscretePath(batch.times, batch.states.reshape(2, 3, -1, 2),
                            batch.hamiltonian.reshape(2, 3, 2, 2))
        np.testing.assert_array_equal(chain_phase(grid).ravel(), chain_phase(batch))
        assert dynamical_phase(grid).shape == (2, 3)


class TestUndefinedRows:
    @pytest.mark.parametrize("states, error", [
        (ORTHOGONAL_LINK, OrthogonalStatesError),
        (ORTHOGONAL_ENDS, VanishingEndpointOverlapError),
    ])
    def test_nan_in_a_batch_and_raised_alone(self, states, error):
        good = np.tile(PLUS, (3, 1))
        batch = DiscretePath(STEPS, np.stack([good, states, good]))
        got = chain_phase(batch)
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
        assert np.isnan(pancharatnam_vs_auxiliary(batch)[1])
        with pytest.raises(error):
            chain_phase(DiscretePath(STEPS, states))
        with pytest.raises(error):
            pancharatnam_vs_auxiliary(DiscretePath(STEPS, states))

    def test_orthogonal_link_in_lift_and_local_phase(self):
        good = np.tile(PLUS, (3, 1))
        batch = DiscretePath(STEPS, np.stack([good, ORTHOGONAL_LINK]))
        lifted = make_parallel_lift(batch)
        assert np.isnan(lifted.states[1]).all()
        assert lifted.states[0].tobytes() == make_parallel_lift(
            DiscretePath(STEPS, good)).states.tobytes()
        assert np.isnan(dynamical_phase(batch)).tolist() == [False, True]
        assert is_parallel_lift(batch, 1e-10).tolist() == [True, False]
        single = DiscretePath(STEPS, ORTHOGONAL_LINK)
        assert is_parallel_lift(single, 1e-10) is False
        for kernel in (make_parallel_lift, dynamical_phase):
            with pytest.raises(OrthogonalStatesError, match="link 0"):
                kernel(single)

    def test_closure_takes_a_batch(self):
        singles, batch = smooth_batch(5, 2)
        np.testing.assert_allclose(geodesic_closure_solid_angle(batch),
                                   [geodesic_closure_solid_angle(p) for p in singles],
                                   rtol=0.0, atol=1e-12)


def test_empty_batches_give_empty_rows():
    empty = DiscretePath(STEPS, np.zeros((0, 3, 2), dtype=complex), np.zeros((0, 2, 2)))
    for kernel in (chain_phase, dynamical_phase, pancharatnam_vs_auxiliary,
                   lambda p: is_parallel_lift(p, 1e-10),
                   lambda p: dynamical_phase(DiscretePath(p.times, p.states))):
        assert kernel(empty).shape == (0,)
    assert make_parallel_lift(empty).states.shape == (0, 3, 2)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_energy_terms_match_the_general_contraction(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        path = random_smooth_path(rng, n=int(rng.integers(1, 300)), dim=dim)
        assert abs(dynamical_phase(path) - einsum_energy_phase(path)) <= 1e-14


@pytest.mark.parametrize("steps", [10_000, transport._BLOCK + 1])
def test_blocked_energies_equal_the_whole_array_formula(steps):
    singles, batch = smooth_batch(6, 5, n=steps)
    for path in (precession_path(PrecessionSpec(0.7, 4.0), steps), singles[0], batch):
        whole = -np.trapezoid(transport._energies(path.states, path.hamiltonian),
                              path.times)
        assert np.asarray(dynamical_phase(path)).tobytes() == whole.tobytes()


def test_random_smooth_path_draws_and_evolves_as_before():
    # the generators bit for bit; the sum over eigenvectors within 1e-15
    # of the matrix products
    for dim in (2, 3, 4):
        rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
        for _ in range(10):
            path = random_smooth_path(rng, n=33, dim=dim)
            h, psi0 = one_generator(ref, dim)
            assert path.hamiltonian.tobytes() == h.tobytes()
            assert np.abs(path.states - matmul_evolution(h, psi0, 33)).max() <= 1e-15
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# the batched path checks

PATH_CHECKS = {  # default instance count (or grid size), threshold, mode
    "check_lift_independence": (("n", 100), 1e-10, "max"),
    "check_parallel_lift": (("n", 100), 1e-10, "max"),
    "check_cancellation_identity": (("n", 60), 1.0, "max"),
    "check_precession_three_way": (("n_steps", 10_000), 1.0, "max"),
    "check_chain_convergence": (("n_coarse", 1000), 1.9, "min"),
}


@pytest.mark.parametrize("name", sorted(PATH_CHECKS))
@pytest.mark.parametrize("seed", [0, 20260809])
def test_path_checks_keep_size_threshold_and_mode(name, seed):
    (arg, size), threshold, mode = PATH_CHECKS[name]
    fn = getattr(checks, name)
    assert list(inspect.signature(fn).parameters) == ["seed", "tol_scale", arg]
    assert inspect.signature(fn).parameters[arg].default == size
    result = fn(seed)
    assert (result.threshold, result.mode, result.passed) == (threshold, mode, True)


def record(monkeypatch, name):
    """Record every path passed to checks.<name>."""
    real, seen = getattr(checks, name), []
    monkeypatch.setattr(checks, name,
                        lambda path, *a: seen.append(path) or real(path, *a))
    return seen


class TestPathChecksDrawTheirOldInputs:
    """The parallel lift keeps its one-at-a-time inputs; lift independence
    and cancellation draw each input kind once, in the blocks below."""

    def test_lift_independence(self, monkeypatch):
        seen = record(monkeypatch, "chain_phase")
        checks.check_lift_independence(7)
        rng = np.random.default_rng([7, 15])
        h, psi0 = block_generators(rng, 100)
        angles = rng.uniform(-np.pi, np.pi, (100, 201))
        states = checks._evolved_path(h, psi0, 200).states
        assert seen[0].states.tobytes() == (np.exp(1j * angles)[..., None]
                                            * states).tobytes()
        assert seen[1].hamiltonian.tobytes() == h.tobytes()
        assert seen[1].states.tobytes() == states.tobytes()

    def test_parallel_lift(self, monkeypatch):
        seen = record(monkeypatch, "make_parallel_lift")
        checks.check_parallel_lift(7)
        rng = np.random.default_rng([7, 16])
        want = [one_generator(rng) for _ in range(100)]
        h, psi0 = map(np.stack, zip(*want))
        assert seen[0].hamiltonian.tobytes() == h.tobytes()
        assert (seen[0].states.tobytes()
                == checks._evolved_path(h, psi0, 200).states.tobytes())
        old = np.stack([matmul_evolution(*generator, 200) for generator in want])
        assert np.abs(seen[0].states - old).max() <= 1e-15

    def test_cancellation_identity(self, monkeypatch):
        seen = record(monkeypatch, "pancharatnam_vs_auxiliary")
        checks.check_cancellation_identity(7)
        rng = np.random.default_rng([7, 17])
        steps = rng.choice([64, 256, 1024], 60)
        h, psi0 = block_generators(rng, 60)
        order = list(dict.fromkeys(steps.tolist()))  # groups by first draw
        assert [p.n_samples - 1 for p in seen] == order
        for path, n_steps in zip(seen, order):
            rows = steps == n_steps
            want = checks._evolved_path(h[rows], psi0[rows], n_steps)
            assert path.hamiltonian.tobytes() == h[rows].tobytes()
            assert path.states.tobytes() == want.states.tobytes()

    @pytest.mark.parametrize("name, sizes", [
        ("check_precession_three_way", [10_000]),
        ("check_chain_convergence", [1000, 2000]),
    ])
    def test_precession_grid(self, monkeypatch, name, sizes):
        seen = record(monkeypatch, "chain_phase")
        getattr(checks, name)(7)
        assert len(seen) == len(sizes)
        for batch, n in zip(seen, sizes):
            want = [precession_path(PrecessionSpec(theta, phi), n).states
                    for theta, phi in checks.PRECESSION_GRID]
            assert batch.states.tobytes() == np.stack(want).tobytes()


def conjugate_chain(monkeypatch):
    """Links read <A_j|A_{j+1}>: the chain runs through conjugated overlaps."""
    real = transport._link_phases

    def conjugated(path):
        phases, broken = real(path)
        return -phases, broken

    monkeypatch.setattr(transport, "_link_phases", conjugated)


def skip_lift_rephasing(monkeypatch):
    def unlifted(path):
        return DiscretePath(path.times, path.states)

    monkeypatch.setattr(checks, "make_parallel_lift", unlifted)


def flip_dynamical_sign(monkeypatch):
    real = transport.dynamical_phase

    def flipped(path):
        return -real(path)

    for module in (transport, checks):
        monkeypatch.setattr(module, "dynamical_phase", flipped)


def transpose_hamiltonian(monkeypatch):
    real = transport._energies
    monkeypatch.setattr(transport, "_energies",
                        lambda states, h: real(states, h.swapaxes(-1, -2)))


@pytest.mark.parametrize("fault, names", [
    (conjugate_chain, ["check_lift_independence", "check_parallel_lift",
                       "check_cancellation_identity", "check_precession_three_way",
                       "check_chain_convergence"]),
    (skip_lift_rephasing, ["check_parallel_lift"]),
    (flip_dynamical_sign, ["check_cancellation_identity"]),
    (transpose_hamiltonian, ["check_cancellation_identity"]),
])
@pytest.mark.parametrize("seed", [0, 20260809])
def test_path_checks_fail_under_planted_faults(monkeypatch, fault, names, seed):
    fault(monkeypatch)
    for name in names:
        assert not getattr(checks, name)(seed).passed, name


def test_cli_import_leaves_the_batteries_and_process_pool_out():
    code = ("import sys, pancha.cli; "
            "print(sorted({'pancha.checks', 'concurrent.futures.process'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_suite_names_are_the_batteries():
    from pancha.cli import SUITE_NAMES

    assert SUITE_NAMES == tuple(sorted(checks.SUITES))
