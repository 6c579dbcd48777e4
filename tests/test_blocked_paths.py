"""Every pass over a path walks the same blocks (transport._blocks):
building, validating and integrating block by block must give the
values, verdicts and messages of one pass over the whole path, bit for
bit, whichever block a sample or a fault falls in."""

import numpy as np
import pytest

from pancha import transport
from pancha.transport import (
    _BLOCK,
    DiscretePath,
    PrecessionSpec,
    _blocks,
    _energies,
    dynamical_phase,
    precession_path,
)

PLUS = np.array([1.0, 0.0], dtype=complex)
SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100007]


@pytest.mark.parametrize("rows", [1, 3, 12, _BLOCK, 10 * _BLOCK])
@pytest.mark.parametrize("n", [1, 2, 681, 682, 683, _BLOCK, 3 * _BLOCK + 5])
def test_blocks_tile_the_range_in_steps_of_the_rule(n, rows):
    blocks = list(_blocks(n, rows))
    step = max(1, _BLOCK // rows)
    assert blocks == [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo2 for (_, hi), (lo2, _) in zip(blocks, blocks[1:]))


def trapezoid_of_all_energies(path):
    return -np.trapezoid(_energies(path.states, path.hamiltonian), path.times)


@pytest.mark.parametrize("n", SIZES)
def test_dynamical_phase_equals_the_trapezoid_of_all_energies(n):
    path = precession_path(PrecessionSpec(0.8, -2.9), n)
    assert dynamical_phase(path) == trapezoid_of_all_energies(path)


def test_batched_dynamical_phase_equals_the_trapezoid_of_all_energies():
    rng = np.random.default_rng(10)
    paths = [precession_path(PrecessionSpec(*rng.uniform((0.0, 0.1), (np.pi, 6.0))),
                             10000) for _ in range(12)]
    # uneven steps, so each link's width enters its own term
    times = np.cumsum(rng.uniform(0.5, 1.5, 10001)) * 1e-3
    for hamiltonian in (paths[0].hamiltonian,
                        np.stack([p.hamiltonian for p in paths])):
        batch = DiscretePath(times, np.stack([p.states for p in paths]), hamiltonian)
        got = dynamical_phase(batch)
        assert got.shape == (12,)
        assert got.tobytes() == trapezoid_of_all_energies(batch).tobytes()


def unit_path(n, batch=()):
    return np.arange(float(n)), np.tile(PLUS, batch + (n, 1))


class TestValidateAcrossBlocks:
    def test_a_repeated_time_across_the_first_block_edge(self):
        times, states = unit_path(_BLOCK + 5)
        times[_BLOCK] = times[_BLOCK - 1]
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePath(times, states)

    @pytest.mark.parametrize("edge", [_BLOCK - 2, _BLOCK - 1, _BLOCK])
    def test_a_decreasing_time_at_each_link_about_the_edge(self, edge):
        times, states = unit_path(_BLOCK + 5)
        times[edge + 1] = times[edge] - 0.5
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePath(times, states)

    def test_a_non_unit_state_in_the_last_partial_block(self):
        times, states = unit_path(2 * _BLOCK + 7)
        states[-1] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match="unit vectors"):
            DiscretePath(times, states)

    def test_times_win_over_an_earlier_non_unit_state(self):
        times, states = unit_path(2 * _BLOCK + 7)
        states[3] *= 1.0 + 1e-8
        times[-1] = times[-2]
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePath(times, states)

    def test_a_batch_of_twelve_walks_682_samples_a_block(self):
        assert next(_blocks(5000, 12)) == (0, 682)
        times, states = unit_path(5000, (12,))
        states[7, -1] *= 1.0 - 1e-8  # the last partial block, one row
        with pytest.raises(ValueError, match="unit vectors"):
            DiscretePath(times, states)
        times[682] = times[681]  # across the first edge of the batch's blocks
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePath(times, states)

    def test_every_block_is_checked(self, monkeypatch):
        monkeypatch.setattr(transport, "_BLOCK", 16)
        times, states = unit_path(100)
        for k in range(100):
            bad = states.copy()
            bad[k] *= 1.0 + 1e-8
            with pytest.raises(ValueError, match="unit vectors"):
                DiscretePath(times, bad)

    @pytest.mark.parametrize("where", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_a_nan_time_in_any_block(self, where):
        times, states = unit_path(_BLOCK + 5)
        times[where] = np.nan
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePath(times, states)

    @pytest.mark.parametrize("times, message", [
        ([0.0, np.nan, 1.0], "strictly increasing"),
        ([np.nan, np.nan, np.nan], "finite"),
        ([0.0, 1.0, np.inf], "finite"),
        ([-np.inf, 0.0, 1.0], "finite"),
        ([0.0, 1.0, np.nan], "finite"),
    ])
    def test_non_finite_times_are_refused(self, times, message):
        with pytest.raises(ValueError, match=message):
            DiscretePath(times, np.tile(PLUS, (3, 1)))

    @pytest.mark.parametrize("theta, phi", [(0.3, np.nan), (0.3, np.inf),
                                            (0.3, -np.inf), (np.nan, 1.0),
                                            (np.inf, 1.0)])
    def test_a_non_finite_precession_angle_is_refused(self, theta, phi):
        with pytest.raises(ValueError, match="finite"):
            precession_path(PrecessionSpec(theta, phi), 16)

    def test_a_nan_row_still_passes(self):
        times, states = unit_path(_BLOCK + 5, (3,))
        states[1] = np.nan
        DiscretePath(times, states)
        states[1, _BLOCK + 2] = np.nan  # and a NaN sample in the last block
        states[1, :_BLOCK + 2] = PLUS
        DiscretePath(times, states)
