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
    _precession_states,
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
    # a batch of 12 walks 682 samples a block, one path 8192
    rng = np.random.default_rng(n)
    theta, phi = rng.uniform(0.0, np.pi, 12), rng.uniform(-6.0, 6.0, 12)
    batch = checks._precession_batch(PrecessionSpec(theta, phi), n)
    assert batch.states.shape == (12, n + 1, 2)
    for row, t, p in zip(batch.states, theta, phi):
        single = precession_path(PrecessionSpec(t, p), n)
        assert row.tobytes() == single.states.tobytes()
    # axes broadcast against one shared set of times
    times = np.linspace(0.0, phi[2], n + 1)
    grid = _precession_states(theta.reshape(3, 4), times)
    assert grid.shape == (3, 4, n + 1, 2)
    assert grid[1, 2].tobytes() == precession_path(
        PrecessionSpec(theta[6], phi[2]), n).states.tobytes()


def test_the_precession_batch_is_validated_once(monkeypatch):
    calls = []
    validate = DiscretePath.validate
    monkeypatch.setattr(DiscretePath, "validate",
                        lambda path: calls.append(path) or validate(path))
    assert checks.check_precession_three_way(0).passed
    assert len(calls) == 1
