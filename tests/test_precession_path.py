"""precession_path writes its states part by part and block by block
into one array; the values must be those of the plain complex expression,
and of the states built in one pass over full-length arrays, bit for bit."""

import numpy as np
import pytest

from pancha import checks
from pancha.transport import (
    _BLOCK,
    DiscretePath,
    PrecessionSpec,
    dynamical_phase,
    precession_path,
)


def reference_states(spec, n):
    half = np.linspace(0.0, spec.phi, n + 1) / 2.0
    return np.column_stack([
        np.cos(half) - 1j * np.sin(half) * np.cos(spec.theta),
        -1j * np.sin(half) * np.sin(spec.theta),
    ])


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_states_equal_the_complex_expression_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        spec = PrecessionSpec(rng.uniform(0.0, np.pi), rng.uniform(-6.0, 6.0))
        # bytes, not values: the signs of zero parts must agree too
        assert precession_path(spec, n).states.tobytes() == \
            reference_states(spec, n).tobytes()


def one_shot_states(spec, n):
    """The states as built in one pass over full-length arrays."""
    times = np.linspace(0.0, spec.phi, n + 1)
    half = times / 2.0
    sine = np.sin(half)
    states = np.empty((n + 1, 2), dtype=complex)
    states[:, 0].real = np.cos(half)
    states[:, 0].imag = 0.0 - sine * np.cos(spec.theta)
    states[:, 1].real = 0.0
    states[:, 1].imag = 0.0 - sine * np.sin(spec.theta)
    return states


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100007])
@pytest.mark.parametrize("phi", [2.3, -4.1])
def test_states_equal_the_one_shot_formula_bit_for_bit(n, phi):
    spec = PrecessionSpec(1.1, phi)
    path = precession_path(spec, n)
    assert path.times.tobytes() == np.abs(np.linspace(0.0, phi, n + 1)).tobytes()
    # bytes, not values: the signs of zero parts must agree too
    assert path.states.tobytes() == one_shot_states(spec, n).tobytes()


@pytest.mark.parametrize("n", [1, 681, 682, 683, 10_000])
def test_batched_states_equal_single_paths_bit_for_bit(n):
    # a batch of 12 walks 682 samples a block, one path 8192; the angles
    # take both signs, so some rows run backward under -H at times |t|
    rng = np.random.default_rng(n)
    theta, phi = rng.uniform(0.0, np.pi, 12), rng.uniform(-6.0, 6.0, 12)
    assert (phi < 0.0).any() and (phi > 0.0).any()
    for shape in ((12,), (3, 4)):
        batch = precession_path(PrecessionSpec(theta.reshape(shape),
                                               phi.reshape(shape)), n)
        assert batch.states.shape == shape + (n + 1, 2)
        assert batch.times.shape == shape + (n + 1,)
        assert batch.hamiltonian.shape == shape + (2, 2)
        rows = zip(batch.times.reshape(12, -1), batch.states.reshape(12, n + 1, 2),
                   batch.hamiltonian.reshape(12, 2, 2))
        for (times, states, h), t, p in zip(rows, theta, phi):
            single = precession_path(PrecessionSpec(t, p), n)
            assert times.tobytes() == single.times.tobytes()
            assert states.tobytes() == single.states.tobytes()
            assert h.tobytes() == single.hamiltonian.tobytes()


def test_angles_broadcast_to_one_path_per_row():
    theta, phi = np.array([[0.3], [1.2]]), np.array([-2.0, 1.0, 4.0])
    grid = precession_path(PrecessionSpec(theta, phi), 50)
    assert grid.states.shape == (2, 3, 51, 2)
    assert grid.hamiltonian.shape == (2, 3, 2, 2)
    single = precession_path(PrecessionSpec(1.2, -2.0), 50)
    assert grid.times[1, 0].tobytes() == single.times.tobytes()
    assert grid.states[1, 0].tobytes() == single.states.tobytes()
    assert grid.hamiltonian[1, 0].tobytes() == single.hamiltonian.tobytes()
    # a scalar angle broadcasts against the tilts
    forward = precession_path(PrecessionSpec(theta[:, 0], 2.5), 50)
    assert forward.times.shape == (2, 51) and forward.hamiltonian.shape == (2, 2, 2)


def test_per_path_times_give_each_row_its_dynamical_phase():
    spec = PrecessionSpec(np.array([0.4, 1.1, 2.0]), np.array([1.5, -3.0, 5.5]))
    got = dynamical_phase(precession_path(spec, 300))
    want = [dynamical_phase(precession_path(PrecessionSpec(t, p), 300))
            for t, p in zip(spec.theta, spec.phi)]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got, -0.5 * spec.phi * np.cos(spec.theta),
                               rtol=0.0, atol=1e-12)


def test_the_precession_batch_is_validated_once(monkeypatch):
    calls = []
    validate = DiscretePath.validate
    monkeypatch.setattr(DiscretePath, "validate",
                        lambda path: calls.append(path) or validate(path))
    assert checks.check_precession_three_way(0).passed
    assert len(calls) == 1
