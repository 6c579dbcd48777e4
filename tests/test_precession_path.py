"""precession_path writes its states part by part into one array; the
values must be those of the plain complex expression, bit for bit."""

import numpy as np
import pytest

from pancha.transport import PrecessionSpec, precession_path


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
