"""precession_path writes its states part by part and block by block
into one array; the values must be those of the plain complex expression,
and of the states built in one pass over full-length arrays, bit for bit."""

import numpy as np
import pytest

from pancha.transport import _BLOCK, PrecessionSpec, precession_path


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
