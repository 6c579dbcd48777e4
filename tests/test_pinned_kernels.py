"""Kernels that form each quantity once give the bits of the code they
replaced.

The transport kernels ``_swept_area``, ``_unit_bloch``, ``_energies``,
``_precession_states``, ``_link_phases``, ``dynamical_phase`` and
``DiscretePath.validate``, the mixed-state triangle law
``mixed_bargmann(t, r)`` and the sampler ``checks.random_triangle``, and
the spin-up analyser fringe with its ``fit_fringe`` reading, are held to
the verbatim copies of their earlier code in ``oracles``: the same
values bit for bit, the same undefined rows, and the same errors with
the same messages in the same order.  The sweep's cases take both of its
branches: blocks whose arcs all have u.v >= 0, and blocks with a wider
arc or a NaN; and batches whose joins, from one row's last point to the
next row's first in the block's ravel, would trip a guard or a branch if
the sweep took them for arcs.  A tilt column against a row of angles
takes one sine and one cosine per angle's times row, not per path.
``loop_holonomy`` transports by the ``geodesic_unitary`` product bit for
bit, and each block of radii of the mixed solid-angle battery, the
weighted invariant's and the holonomy trace route's, holds the rows of
one call per radius.  The frozen nonadditivity fixture keeps its
recorded stat.
A triangle holds its vertex unit vectors and states: made from Bloch
angles, it and ``solid_angle``, ``loop_holonomy``, ``mixed_bargmann``,
``geodesic_unitary`` (on the points' vectors), ``sample_triangle_path``,
``twophoton._pair_transport``, ``simulate_loop_pair`` and the
coincidence fringe ``franson_routes`` fits give the bits and errors of the earlier
angle-route copies in ``oracles``; made from states, its vectors are the
states' Bloch vectors and its solid angle that of the earlier route
within 1e-14.  ``bargmann_invariant`` of three states gives the bits,
NaN rows and error types of the earlier three-state kernel, of four
states the earlier ``multi_vertex_invariant`` within 1e-14, and
reversing s1 ... s_{n-1} negates it exactly.
The kernels rewritten to run along the time axis (``checks._evolved_path``,
``make_parallel_lift``, the rephasing of ``check_lift_independence`` and
the trapezoid of ``dynamical_phase``) are held to recorded outputs instead:
digests and hex floats that the earlier code gave (numpy 2.4, x86-64).
"""

import hashlib
import re

import numpy as np
import pytest

import oracles
from pancha import checks, geometry, transport, twophoton
from pancha.core import BlochPoint, _unit_bloch, haar_state, qubit_density, wrap_angle
from pancha.dual import analyser_intensities
from pancha.errors import (
    DegenerateSpectrumError,
    IllConditionedError,
    OrthogonalStatesError,
    PhaseDomainError,
)
from pancha.geometry import (
    SphericalTriangle,
    geodesic_unitary,
    loop_holonomy,
    mixed_bargmann,
    mixed_solid_angle_phase,
    solid_angle,
)
from pancha.phase import (
    PhaseResult,
    _chi_grid,
    fit_fringe,
    mixed_phase,
    pancharatnam_phase,
    pure_interference_profile,
)
from pancha.transport import (
    _BLOCK,
    DiscretePath,
    PrecessionSpec,
    precession_path,
)
from pancha.twophoton import simulate_loop_pair

SEEDS = (0, 20260809)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def outcome(fn, *args):
    """("value", result) or ("raise", error type, message)."""
    try:
        return ("value", fn(*args))
    except (ValueError, PhaseDomainError) as exc:
        return ("raise", type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
        return
    got_value, want_value = got[1], want[1]
    if isinstance(want_value, tuple):
        assert len(got_value) == len(want_value)
        for g, w in zip(got_value, want_value):
            same_bits(g, w)
    else:
        same_bits(got_value, want_value)


def unchecked(times, states, hamiltonian=None):
    """A DiscretePath that skips validation, so both validators see it."""
    path = object.__new__(DiscretePath)
    object.__setattr__(path, "times", np.asarray(times, dtype=float))
    object.__setattr__(path, "states", np.asarray(states, dtype=complex))
    object.__setattr__(path, "hamiltonian", None if hamiltonian is None
                       else np.asarray(hamiltonian, dtype=complex))
    return path


def precession(theta, phi, n):
    return precession_path(PrecessionSpec(theta, phi), n)


THETAS = np.array([0.2, 0.9, 1.6, 2.7])


# ---------------------------------------------------------------------------
# _precession_states

PRECESSION_CASES = {
    "single": (0.7, np.linspace(0.0, 2.5, 1001)),
    "single negative phi": (0.7, np.linspace(0.0, -2.5, 1001)),
    "single over blocks": (1.1, np.linspace(0.0, 5.0, 3 * _BLOCK + 7)),
    "theta batch, shared times": (THETAS, np.linspace(0.0, 2.0, 3001)),
    "theta batch, per-row times": (THETAS, np.linspace(0.0, [1.0, -2.0, 3.0, -0.5],
                                                       2501, axis=-1)),
    "theta batch over blocks, shared times": (THETAS, np.linspace(0.0, -3.0, 5000)),
    "theta column against time rows": (THETAS[:, None],
                                       np.linspace(0.0, [1.0, -2.0, 3.0], 301,
                                                   axis=-1)),
    "one theta, time rows": (0.4, np.linspace(0.0, [1.0, -2.0], 301, axis=-1)),
    "empty theta batch": (np.zeros(0), np.linspace(0.0, 1.0, 11)),
}


@pytest.mark.parametrize("theta, times", PRECESSION_CASES.values(),
                         ids=PRECESSION_CASES.keys())
def test_precession_states(theta, times):
    same_bits(transport._precession_states(theta, times),
              oracles._precession_states(theta, times))


def test_a_tilt_column_against_angle_rows_takes_one_sine_and_cosine_per_angle(
        monkeypatch):
    """Elements np.sin and np.cos compute (their outputs' sizes) while a
    4-tilt column against 3 angles is built: the 3 angle rows of n + 1
    half-times, not 12, and one tilt per path twice (the states' axis and
    the generator's).  The path's times are still one row per path, and
    its states those of the per-path times."""
    thetas, phis, n = THETAS[:, None], np.array([1.0, -2.0, 3.0]), 3000
    computed = {"sin": 0, "cos": 0}

    def counting(name, ufunc):
        def call(*args, **kwargs):
            result = ufunc(*args, **kwargs)
            computed[name] += np.size(result)
            return result
        return call

    for name in computed:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    path = precession_path(PrecessionSpec(thetas, phis), n)
    monkeypatch.undo()
    assert computed == {"sin": 3 * (n + 1) + 24, "cos": 3 * (n + 1) + 24}
    rows = np.broadcast_to(phis, (4, 3))
    same_bits(path.times, np.abs(np.linspace(0.0, rows, n + 1, axis=-1)))
    same_bits(path.states, oracles._precession_states(
        thetas, np.linspace(0.0, rows, n + 1, axis=-1)))


# ---------------------------------------------------------------------------
# DiscretePath.validate

def _validate_cases():
    good = precession(0.7, 2.0, 1000)
    long = precession(0.7, -2.0, 2 * _BLOCK + 3)
    batch = precession(THETAS, [1.0, -2.0, 3.0, 0.5], 700)
    cases = {
        "single": (good.times, good.states, good.hamiltonian),
        "single over blocks": (long.times, long.states, long.hamiltonian),
        "batch, per-row times": (batch.times, batch.states, batch.hamiltonian),
        "batch, shared times": (good.times, np.stack([good.states] * 3), None),
        "empty batch": (good.times, np.zeros((0,) + good.states.shape), None),
        "qutrit": (np.arange(4.0), np.eye(3)[[0, 1, 2, 0]], None),
        "subnormal steps": ([0.0, 5e-324, 1e-323], good.states[:3], None),
        "extreme ends": ([-1e308, 0.0, 1e308], good.states[:3], None),
    }
    for name, where in (("repeated time", 1), ("repeated time at a block edge",
                                               _BLOCK), ("decreasing last time", -1)):
        times = long.times.copy()
        times[where] = times[where - 1] if name.startswith("repeated") else -1.0
        cases[name] = (times, long.states, None)
    for name, value in (("nan", np.nan), ("inf", np.inf)):
        times = good.times.copy()
        times[500] = value
        cases[f"{name} time inside"] = (times, good.states, None)
        times = good.times.copy()
        times[-1] = value
        cases[f"{name} time at the end"] = (times, good.states, None)
    stretched = long.states.copy()
    stretched[_BLOCK + 1] *= 1.0 + 1e-8
    cases["non-unit state"] = (long.times, stretched, None)
    for name, defect in (("just inside", 0.999e-9), ("just outside", 1.001e-9)):
        for side in (1.0, -1.0):
            states = good.states.copy()
            states[0] = (1.0 + side * defect, 0.0)
            cases[f"modulus {side:+.0f}e-9 {name} the tolerance"] = (
                good.times, states, None)
    late = long.times.copy()
    late[-2] = late[-1]
    cases["times win over an earlier non-unit state"] = (late, stretched, None)
    nan_state = good.states.copy()
    nan_state[3, 1] = np.nan
    cases["nan state, single"] = (good.times, nan_state, None)
    cases["nan row of a batch"] = (good.times, np.stack([good.states, nan_state]),
                                   None)
    cases["one bad time row"] = (np.stack([batch.times[0], late[:701]]),
                                 batch.states[:2], None)
    cases["times that do not broadcast"] = (np.ones((3, 701)), batch.states, None)
    cases["one sample"] = ([0.0], good.states[:1], None)
    cases["wrong hamiltonian shape"] = (good.times, good.states, np.eye(3))
    cases["non-hermitian hamiltonian"] = (good.times, good.states,
                                          [[0.0, 1.0], [0.0, 0.0]])
    return cases


VALIDATE_CASES = _validate_cases()


@pytest.mark.parametrize("times, states, hamiltonian", VALIDATE_CASES.values(),
                         ids=VALIDATE_CASES.keys())
def test_validate(times, states, hamiltonian):
    path = unchecked(times, states, hamiltonian)
    assert_same_outcome(outcome(lambda p: p.validate() is p, path),
                        outcome(lambda p: oracles.validate(p) is p, path))


# ---------------------------------------------------------------------------
# _link_phases and dynamical_phase

def _orthogonal_link(path, at):
    """The path with the state after sample ``at`` replaced by one
    orthogonal to it (a vanishing link), still unit."""
    states = path.states.copy()
    a, b = states[..., at, 0], states[..., at, 1]
    states[..., at + 1, 0], states[..., at + 1, 1] = -b.conj(), a.conj()
    return states


def _link_cases():
    single = precession(0.7, 2.0, 1000)
    long = precession(1.2, -2.5, 2 * _BLOCK + 3)
    batch = precession(THETAS, [1.0, -2.0, 3.0, 0.5], 700)
    broken = batch.states.copy()
    broken[1] = _orthogonal_link(batch, 300)[1]
    broken[3, 10] = np.nan
    return {
        "single": unchecked(single.times, single.states),
        "single over blocks": unchecked(long.times, long.states),
        "batch": unchecked(batch.times, batch.states),
        "batch, shared times": unchecked(single.times, np.stack([single.states] * 3)),
        "broken and nan rows": unchecked(batch.times, broken),
        "empty batch": unchecked(single.times, np.zeros((0,) + single.states.shape)),
        "vanishing link, single": unchecked(long.times, _orthogonal_link(long, 9000)),
        "two vanishing links, single": unchecked(
            long.times, _orthogonal_link(unchecked(long.times,
                                                   _orthogonal_link(long, 9000)), 40)),
    }


LINK_CASES = _link_cases()


@pytest.mark.parametrize("path", LINK_CASES.values(), ids=LINK_CASES.keys())
def test_link_phases(path):
    assert_same_outcome(outcome(transport._link_phases, path),
                        outcome(oracles._link_phases, path))


def _dynamical_cases():
    cases = {f"links: {name}": path for name, path in LINK_CASES.items()}
    single = precession(0.7, 2.0, 1000)
    negative = precession(2.1, -1.5, 2 * _BLOCK + 3)
    batch = precession(THETAS, [1.0, -2.0, 3.0, 0.5], 700)
    shared = single.times
    h_rows = transport.precession_hamiltonian(THETAS[:3])
    cases.update({
        "hamiltonian, single": single,
        "hamiltonian, negative phi over blocks": negative,
        "hamiltonian, batch with per-row times": batch,
        "hamiltonian per path, shared times": unchecked(
            shared, np.stack([single.states] * 3), h_rows),
        "one hamiltonian, shared times": unchecked(
            shared, np.stack([single.states] * 3), single.hamiltonian),
        "hamiltonian, empty batch": unchecked(
            shared, np.zeros((0,) + single.states.shape), single.hamiltonian),
        "hamiltonian, nan row": unchecked(
            batch.times[:2], np.concatenate([batch.states[:1],
                                              np.full_like(batch.states[:1], np.nan)]),
            batch.hamiltonian[:2]),
        "hamiltonian, qutrit": unchecked(np.linspace(0.0, 1.0, 5),
                                         np.eye(3)[[0, 1, 2, 0, 1]],
                                         np.diag([1.0, -0.5, 2.0])),
    })
    return cases


DYNAMICAL_CASES = _dynamical_cases()


@pytest.mark.parametrize("path", DYNAMICAL_CASES.values(), ids=DYNAMICAL_CASES.keys())
def test_dynamical_phase(path):
    got = outcome(transport.dynamical_phase, path)
    want = outcome(oracles.dynamical_phase, path)
    assert_same_outcome(got, want)
    if want[0] == "value":
        assert type(got[1]) is type(want[1])


# ---------------------------------------------------------------------------
# _swept_area

NORTH, SOUTH = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)


def _curve(k=40):
    """k unit vectors along a smooth curve off both poles."""
    s = np.linspace(0.0, 1.0, k)
    theta, phi = 0.4 + 2.2 * s, 3.0 * np.sin(2.0 * s)
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


def _with(points, at, point):
    points = points.copy()
    points[at] = point
    return points


def _wide_after(point):
    """A unit vector more than a quarter turn from ``point``: u.v < 0."""
    w = np.cross(point, NORTH) - 0.5 * np.asarray(point)
    return w / np.linalg.norm(w)


def _flagged_rows():
    clean = _curve()
    return {
        "clean": clean,
        "wide arc": _with(clean, 15, _wide_after(clean[14])),
        "quarter-turn arc, u.v exactly 0": _with(_with(clean, 12, (0.36, 0.48, 0.8)),
                                                 13, (-0.8, 0.6, 0.0)),
        "wide arc over the pole, its flat edge 0": _with(clean, 21,
                                                         clean[20] * (-1, -1, 1)),
        "collapsed arc": _with(clean, 11, clean[10]),
        "antipodal neighbours": _with(clean, 21, -clean[20]),
        "north pole": _with(clean, 5, NORTH),
        "north pole at the start": _with(clean, 0, NORTH),
        "south pole": _with(clean, 30, SOUTH),
        "south pole at the end": _with(clean, -1, SOUTH),
        "south pole after antipodal neighbours": _with(
            _with(clean, 21, -clean[20]), 30, SOUTH),
        "antipodal neighbours after the south pole": _with(
            _with(clean, 31, -clean[30]), 4, SOUTH),
        "nan point": _with(clean, 7, (np.nan,) * 3),
    }


FLAGGED = _flagged_rows()


def components(points):
    return tuple(np.moveaxis(np.asarray(points, dtype=float), -1, 0))


def _swept_cases():
    rows = np.stack(list(FLAGGED.values()))
    path = precession(THETAS, [1.0, -2.0, 3.0, 0.5], 3000)
    cases = {f"single, {name}": components(points) for name, points in FLAGGED.items()}
    cases.update({
        "batch of every flag": components(rows),
        "batch, one row with a wide arc": components(
            np.stack([FLAGGED["clean"], FLAGGED["clean"][::-1], FLAGGED["wide arc"]])),
        "batch, no wide arc": components(np.stack([FLAGGED["clean"],
                                                   FLAGGED["clean"][::-1]])),
        "batch of precession paths": _unit_bloch(path.states),
        "precession path": _unit_bloch(path.states[1]),
        "empty batch": components(np.zeros((0, 40, 3))),
        "one point": components(FLAGGED["clean"][:1]),
        "no points": components(np.zeros((0, 3))),
    })
    return cases


SWEPT_CASES = _swept_cases()


@pytest.mark.parametrize("xyz", SWEPT_CASES.values(), ids=SWEPT_CASES.keys())
def test_swept_area(xyz):
    got = outcome(transport._swept_area, *xyz)
    assert_same_outcome(got, outcome(oracles._swept_area, *xyz))
    assert_same_outcome(got, outcome(oracles._swept_area_allocating, *xyz))


def _joined_rows():
    """Batches of clean rows whose boundary arcs, from one row's last point
    to the next row's first in the block's ravel, would each trip a guard
    or a branch of the sweep if they were arcs."""
    clean = FLAGGED["clean"]
    return {
        "a row ending antipodal to the next row's start": np.stack([clean, -clean[::-1]]),
        "a row ending on the next row's start": np.stack([clean, clean[::-1], clean]),
        "a row ending more than a quarter turn from the next row's start":
            np.stack([clean, clean, clean[::-1]]),
        "every join, and a wide arc inside a row": np.stack(
            [clean, -clean[::-1], -clean[::-1], FLAGGED["wide arc"], clean]),
        "every join, and the poles": np.stack(
            [clean, -clean[::-1], FLAGGED["north pole"], FLAGGED["south pole"],
             FLAGGED["antipodal neighbours"], clean]),
    }


JOINED = _joined_rows()


@pytest.mark.parametrize("rows", JOINED.values(), ids=JOINED.keys())
def test_swept_area_masks_the_joins_between_rows(rows):
    xyz = components(rows)
    got = outcome(transport._swept_area, *xyz)
    assert_same_outcome(got, outcome(oracles._swept_area, *xyz))
    assert_same_outcome(got, outcome(oracles._swept_area_allocating, *xyz))
    alone = [transport._swept_area(*components(points[None]))[1][0] for points in rows]
    assert list(got[1][1]) == alone


def test_each_join_is_what_its_name_says():
    """The first joins of the first three batches above: u.v = -1, a zero
    edge, and u.v < 0 short of antipodal; every arc inside their rows is
    near, so only a join could take the sweep off its near branch."""
    def first_join(name):
        u, v = JOINED[name][0][-1], JOINED[name][1][0]
        return u @ v, np.sum((v - u) ** 2)

    antipodal, on, wide_join = list(JOINED)[:3]
    assert first_join(antipodal)[0] == pytest.approx(-1.0, abs=1e-15)
    assert first_join(on)[1] == 0.0
    assert -0.99 < first_join(wide_join)[0] < 0.0
    for name in (antipodal, on, wide_join):
        assert not any(wide(components(points)) for points in JOINED[name])


def wide(xyz):
    """Whether any arc of the components has u.v < 0 or NaN, so that
    _edge's sign is not 1 on every arc."""
    x, y, z = xyz
    dot = x[..., :-1] * x[..., 1:] + y[..., :-1] * y[..., 1:] + z[..., :-1] * z[..., 1:]
    return not (dot >= 0.0).all()


def test_swept_cases_have_blocks_with_and_without_a_wide_arc():
    assert {name: wide(xyz) for name, xyz in SWEPT_CASES.items()
            if name.startswith("batch")} == {
        "batch of every flag": True, "batch, one row with a wide arc": True,
        "batch, no wide arc": False, "batch of precession paths": False}
    assert wide(SWEPT_CASES["single, wide arc"])
    assert wide(SWEPT_CASES["single, nan point"])
    assert not wide(SWEPT_CASES["single, clean"])
    assert not wide(SWEPT_CASES["single, south pole"])


def test_every_flag_is_hit():
    """The flagged rows above do set the flags they are named after."""
    _, broken = transport._swept_area(*components(np.stack(list(FLAGGED.values()))))
    assert dict(zip(FLAGGED, broken)) == {
        name: name.startswith(("antipodal", "south")) for name in FLAGGED}
    for name in ("collapsed arc", "north pole", "north pole at the start"):
        x, y, z = components(FLAGGED[name])
        e2 = (x[1:] - x[:-1]) ** 2 + (y[1:] - y[:-1]) ** 2 + (z[1:] - z[:-1]) ** 2
        assert (e2 == 0.0).any() or (x * x + y * y == 0.0).any()


CLOSURES = [(0.7, 2.0, 1000), (2.9, -5.0, 3 * _BLOCK),
            (THETAS, [1.0, -2.0, 3.0, 0.5], 2 * _BLOCK)]
COARSE_CLOSURES = [(1.3, 5.5, 3), (THETAS, [1.0, -2.0, -5.5, 0.5], 3)]


@pytest.mark.parametrize("theta, phi, n", CLOSURES)
def test_geodesic_closure_with_the_earlier_sweep(monkeypatch, theta, phi, n):
    path = precession(theta, phi, n)
    got = transport.geodesic_closure_solid_angle(path)
    monkeypatch.setattr(transport, "_swept_area", oracles._swept_area)
    same_bits(got, transport.geodesic_closure_solid_angle(path))


@pytest.mark.parametrize("theta, phi, n", CLOSURES + COARSE_CLOSURES)
def test_geodesic_closure_with_the_allocating_kernels(monkeypatch, theta, phi, n):
    path = precession(theta, phi, n)
    got = transport.geodesic_closure_solid_angle(path)
    monkeypatch.setattr(transport, "_swept_area", oracles._swept_area_allocating)
    monkeypatch.setattr(transport, "_unit_bloch", oracles._unit_bloch)
    same_bits(got, transport.geodesic_closure_solid_angle(path))


def test_coarse_closures_have_wide_arcs():
    """The three-step closures above have arcs with u.v < 0, in one row
    of the batch; the finer do not."""
    assert wide(_unit_bloch(precession(1.3, 5.5, 3).states))
    batch = _unit_bloch(precession(THETAS, [1.0, -2.0, -5.5, 0.5], 3).states)
    rows = [wide([c[row] for c in batch]) for row in range(4)]
    assert rows == [False, False, True, False]
    assert not wide(_unit_bloch(precession(0.7, 2.0, 1000).states))


# ---------------------------------------------------------------------------
# _unit_bloch

def _bloch_cases():
    path = precession(THETAS, [1.0, -2.0, 3.0, 0.5], 700)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(6, 9, 2)) + 1j * rng.normal(size=(6, 9, 2))
    raw[2, 4] = (np.nan, 1.0)
    raw[3, 1] = (1.0, complex(0.0, np.nan))
    return {
        "single state": path.states[1, 200],
        "single state, not unit": raw[0, 0],
        "rows": path.states[1],
        "batch": path.states,
        "a block of a batch": path.states[..., 100:300, :],
        "the end points": path.states[..., [0, -1], :],
        "not unit, nan rows": raw,
        "one row": raw[:, :1],
        "empty batch": np.zeros((0, 5, 2), dtype=complex),
        "no rows": np.zeros((0, 2), dtype=complex),
    }


BLOCH_CASES = _bloch_cases()


@pytest.mark.parametrize("states", BLOCH_CASES.values(), ids=BLOCH_CASES.keys())
def test_unit_bloch(states):
    got, want = _unit_bloch(states), oracles._unit_bloch(states)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        same_bits(g, w)


# ---------------------------------------------------------------------------
# _energies

def _hermitian(rng, d, rows=()):
    a = rng.normal(size=rows + (d, d)) + 1j * rng.normal(size=rows + (d, d))
    return a + np.swapaxes(a, -1, -2).conj()


def _energy_cases():
    rng = np.random.default_rng(17)
    cases = {}
    for d in (2, 4):
        states = rng.normal(size=(3, 50, d)) + 1j * rng.normal(size=(3, 50, d))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        nan_row = states.copy()
        nan_row[1, 7, d - 1] = np.nan
        shared, per_path = _hermitian(rng, d), _hermitian(rng, d, (3,))
        cases.update({
            f"d {d}, single path": (states[0], shared),
            f"d {d}, a block of a single path": (states[0, 10:31], shared),
            f"d {d}, shared hamiltonian": (states, shared),
            f"d {d}, one hamiltonian per path": (states, per_path),
            f"d {d}, a block, one hamiltonian per path": (states[:, 5:20], per_path),
            f"d {d}, nan row": (nan_row, per_path),
            f"d {d}, empty batch": (states[:0], shared),
        })
    # every term is -0.0, so only the leading 0.0 + makes the energy +0.0
    cases["d 2, signed zeros"] = (np.array([[complex(0.0, -0.0), -1.0]] * 2),
                                  np.diag([-1.0, -0.0]).astype(complex))
    return cases


ENERGY_CASES = _energy_cases()


@pytest.mark.parametrize("states, h", ENERGY_CASES.values(), ids=ENERGY_CASES.keys())
def test_energies(states, h):
    same_bits(transport._energies(states, h), oracles._energies(states, h))


# ---------------------------------------------------------------------------
# geodesic kernels

def _vertex_angles():
    """50 vertex triples, (a, b, c) each a (theta, phi) pair of rows,
    from the earlier draw, of which row 0 has antipodal a, b, row 1
    coincident b, c and row 2 antipodal c, a."""
    rng = np.random.default_rng(11)
    tri, _ = oracles.random_triangle(rng, 50)
    a, b, c = (np.array(p) for p in (tri.a, tri.b, tri.c))
    a[:, 0], b[:, 0] = (0.3, 1.0), (np.pi - 0.3, 1.0 + np.pi)
    c[:, 1] = b[:, 1]
    c[:, 2] = (np.pi - a[0, 2], a[1, 2] + np.pi)
    return a, b, c


ANGLES = _vertex_angles()
TRIANGLES = SphericalTriangle(*(BlochPoint(*p) for p in ANGLES))
#: the same triangles as the earlier triangle held them
EARLIER = oracles.SphericalTriangle(*(BlochPoint(*p) for p in ANGLES))


def holonomy_by_sides(t):
    a, b, c = (t.vectors[..., k, :] for k in range(3))
    return geodesic_unitary(c, a) @ geodesic_unitary(b, c) @ geodesic_unitary(a, b)


@pytest.mark.parametrize("rows", [slice(None), 0, 1, 2, 3])
def test_loop_holonomy_is_the_product_of_its_sides(rows):
    t = TRIANGLES[rows]
    got, want = outcome(loop_holonomy, t), outcome(holonomy_by_sides, t)
    assert_same_outcome(got, want)
    if rows == slice(None):
        assert np.isnan(got[1][[0, 2]]).all() and not np.isnan(got[1][1:2]).any()


@pytest.mark.parametrize("kernel", [loop_holonomy,
                                    lambda t: mixed_bargmann(t, 0.5)],
                         ids=["loop_holonomy", "mixed_bargmann"])
@pytest.mark.parametrize("rows", [slice(3, None), 3])
def test_each_vertex_unit_vector_is_formed_once(monkeypatch, kernel, rows):
    """Making the triangle forms each vertex's unit vector; the kernels
    form none."""
    real, calls = BlochPoint.unit_vector, []

    def spy(point):
        calls.append(point)
        return real(point)

    monkeypatch.setattr(BlochPoint, "unit_vector", spy)
    points = [BlochPoint(theta[rows], phi[rows]) for theta, phi in ANGLES]
    t = SphericalTriangle(*points)
    assert [id(p) for p in calls] == [id(p) for p in points]
    kernel(t)
    assert len(calls) == 3


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_solid_angle_law_rows_equal_one_call_per_radius(seed):
    law, trace = checks.check_mixed_solid_angle_law.__wrapped__(seed)
    tri, omega = checks.random_triangle(np.random.default_rng([seed, 6]), 200)
    holonomy = loop_holonomy(tri)
    for block, route in ((law, lambda r: mixed_bargmann(tri, r)),
                         (trace, lambda r: mixed_phase(
                             qubit_density(r, tri.vectors[:, 0]), holonomy).phase)):
        same_bits(block, np.stack([
            np.abs(checks.wrap_angle(route(r) - mixed_solid_angle_phase(r, omega)))
            for r in checks.BLOCH_RADII]))


# ---------------------------------------------------------------------------
# mixed_bargmann(t, r) against qubit_mixed_triple and MixedTriple.validate;
# a case is the rows of TRIANGLES (EARLIER for the earlier law) and a radius

NONE = np.zeros(len(TRIANGLES.states), dtype=bool)
RADII = np.linspace(-1.0, 1.0, len(NONE))
RADII[[4, 5, 6, 7]] = (0.0, np.nan, 1.0 + 1e-13, -1.0 - 1e-13)
ALL = slice(None)
MIXED_CASES = {
    "single": (3, 0.5),
    "single r 1": (3, 1.0),
    "single r -1": (4, -1.0),
    "single r 1 + 1e-13": (3, 1.0 + 1e-13),
    "single r 1 + 1e-12": (3, 1.0 + 1e-12),
    "single r 1 + 3e-12": (3, 1.0 + 3e-12),
    "single r -1 - 1e-13": (3, -1.0 - 1e-13),
    "single r -1 - 3e-12": (3, -1.0 - 3e-12),
    "single r at the upper edge": (3, 1.0 + 2e-12),
    "single r one ulp past the upper edge": (3, np.nextafter(1.0 + 2e-12, 2)),
    "single r at the lower edge": (3, -1.0 - 2e-12),
    "single r one ulp past the lower edge": (3, np.nextafter(-1.0 - 2e-12, -2)),
    "single r 1.1": (3, 1.1),
    "single r -1.1": (3, -1.1),
    "single r 0": (3, 0.0),
    "single r 1e-13": (3, 1e-13),
    "single r 5e-12": (3, 5e-12),
    "single NaN r": (3, np.nan),
    "single antipodal a, b": (0, 0.5),
    "single antipodal a, b, r 1.1": (0, 1.1),
    "single antipodal a, b, r 0": (0, 0.0),
    "single coincident b, c": (1, 0.5),
    "single antipodal c, a": (2, 0.5),
    "single antipodal c, a, r 0": (2, 0.0),
    "single, radius rows": (3, np.array([0.2, 0.0, np.nan, -1.0])),
    "batch": (ALL, 0.5),
    "batch r 1": (ALL, 1.0),
    "batch r 0": (ALL, 0.0),
    "batch r 1.1": (ALL, 1.1),
    "batch, per-row radii": (ALL, RADII),
    "batch, per-row radii with 1.1": (ALL, RADII + 0.1),
    "batch, (k, 1) radii": (ALL, np.array([[0.2], [-0.7], [0.0], [1.0], [np.nan]])),
    "batch, (k, 1) radii as lists": (ALL, [[0.3], [-1.0]]),
    "batch of good rows, (k, 1) radii": (slice(3, None), np.array([[0.0], [0.6]])),
    "empty batch": (NONE, 0.5),
    "empty batch r 0": (NONE, 0.0),
    "empty batch, (k, 1) radii": (NONE, np.array([[0.2], [0.0]])),
}


def earlier_mixed_bargmann(t, r):
    return oracles.mixed_triple_bargmann(oracles.qubit_mixed_triple(t, r))


@pytest.mark.parametrize("rows, r", MIXED_CASES.values(), ids=MIXED_CASES.keys())
def test_mixed_bargmann(rows, r):
    assert_same_outcome(outcome(mixed_bargmann, TRIANGLES[rows], r),
                        outcome(earlier_mixed_bargmann, EARLIER[rows], r))


def test_mixed_cases_reach_every_outcome():
    """Values, NaN rows from each cause, and every raise the law has."""
    got = {name: outcome(mixed_bargmann, TRIANGLES[rows], r)
           for name, (rows, r) in MIXED_CASES.items()}
    raised = {o[1].__name__ for o in got.values() if o[0] == "raise"}
    assert raised == {"DegenerateSpectrumError", "OrthogonalStatesError", "ValueError"}
    error, message = got["single antipodal a, b"][1:]
    assert error is OrthogonalStatesError
    assert message.startswith("overlap <s1|s0> vanishes")
    assert got["single antipodal a, b, r 1.1"][1] is ValueError
    assert got["single antipodal a, b, r 0"][1] is DegenerateSpectrumError
    assert got["single r 1 + 1e-12"][0] == "value"
    assert got["single r 1 + 3e-12"][1] is ValueError
    assert got["single r -1 - 1e-13"][0] == "value"
    assert got["single r -1 - 3e-12"][1] is ValueError
    for side in ("upper", "lower"):
        assert got[f"single r at the {side} edge"][0] == "value"
        assert got[f"single r one ulp past the {side} edge"][1] is ValueError
    assert got["single r 1e-13"][1] is DegenerateSpectrumError
    assert got["single r 5e-12"][0] == "value"
    assert got["single r 0"][2] == "weights 0 and 1 coincide; eigenbases not unique"
    per_row = got["batch, per-row radii"][1]
    assert np.isnan(per_row[[0, 2, 4, 5]]).all()
    assert np.isfinite(np.delete(per_row, [0, 2, 4, 5])).all()
    assert got["batch, (k, 1) radii"][1].shape == (5, len(NONE))
    assert got["empty batch, (k, 1) radii"][1].shape == (2, 0)


@pytest.mark.parametrize("edge", [1.0 + 2e-12, -1.0 - 2e-12])
def test_radius_test_agrees_with_the_earlier_weight_tests_near_the_edge(edge):
    """Every radius within 64 ulps of the edge is accepted or refused as
    the earlier three tests on the weights accepted or refused it."""
    radii = [edge]
    for toward in (-np.inf, np.inf):
        r = edge
        for _ in range(64):
            r = np.nextafter(r, toward)
            radii.append(r)
    for r in radii:
        assert_same_outcome(outcome(mixed_bargmann, TRIANGLES[3], r),
                            outcome(earlier_mixed_bargmann, EARLIER[3], r))


# ---------------------------------------------------------------------------
# checks.random_triangle against the earlier draw that converted twice

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, max_area", [(1, 2.0 * np.pi - 0.1), (200, 2.0 * np.pi - 0.1),
                                         (200, 1.0), (60, 4.0 * np.pi)])
def test_random_triangle(seed, n, max_area):
    """The same rows are drawn and kept, in order: charted by the earlier
    state_to_bloch, the kept states give the earlier angles bit for bit;
    the solid angles, now read off the states' own vectors, stay within
    1e-14 of the earlier ones."""
    tri, omega = checks.random_triangle(np.random.default_rng(seed), n,
                                        max_area=max_area)
    want, want_omega = oracles.random_triangle(np.random.default_rng(seed), n,
                                               max_area=max_area)
    assert tri.states.shape == (n, 3, 2) and omega.shape == (n,)
    for k, want_point in enumerate((want.a, want.b, want.c)):
        got_point = oracles.state_to_bloch(tri.states[:, k])
        same_bits(got_point.theta, want_point.theta)
        same_bits(got_point.phi, want_point.phi)
    np.testing.assert_allclose(omega, want_omega, rtol=0.0, atol=1e-14)
    same_bits(omega, solid_angle(SphericalTriangle.from_states(tri.states)))
    same_bits(tri.vectors, np.stack(_unit_bloch(tri.states), axis=-1))


def test_random_triangle_converts_each_draw_once(monkeypatch):
    """Each draw's states, and then the kept ones, are read once."""
    real_draw, real_read = checks.random_qubit_tuple, geometry._unit_bloch
    draws, conversions = [], []

    def draw(rng, k, *rest):
        draws.append(k)
        return real_draw(rng, k, *rest)

    def read(states):
        conversions.append(states.shape[:-1])
        return real_read(states)

    monkeypatch.setattr(checks, "random_qubit_tuple", draw)
    monkeypatch.setattr(geometry, "_unit_bloch", read)
    checks.random_triangle(np.random.default_rng(3), 200, max_area=1.0)
    assert len(draws) > 1
    assert conversions == [(k, 3) for k in draws] + [(200, 3)]


# ---------------------------------------------------------------------------
# the triangle kernels on angle-built triangles against the earlier
# angle-route kernels, and on state-built ones against the Bloch vector

def _angle_cases():
    """Name -> (a, b, c) vertex angle pairs, one triangle or rows."""
    rng = np.random.default_rng(29)
    batch = [tuple(rng.uniform((0.0, 0.0), (np.pi, 2.0 * np.pi), (40, 2)).T)
             for _ in range(3)]
    single = [(0.4, 1.0), (2.0, 3.0), (1.2, 5.5)]
    poles = [(0.0, 0.0), (np.pi / 2, 0.3), (np.pi, 0.0)]
    near_north = [(1e-9, 4.0), (2.5, 1.0), (1.5, 3.0)]
    near_south = [(0.5, 1.0), (np.pi - 1e-9, 2.0), (1.5, 4.0)]
    coincident = [(0.4, 1.0), (2.0, 3.0), (2.0, 3.0)]
    antipodal = [(0.4, 1.0), (np.pi - 0.4, 1.0 + np.pi), (1.2, 5.5)]
    antipodal_ca = [(0.4, 1.0), (2.0, 3.0), (np.pi - 0.4, 1.0 + np.pi)]
    nan_angle = [(0.4, 1.0), (np.nan, 3.0), (1.2, 5.5)]
    specials = (single, poles, near_north, near_south, coincident, antipodal,
                antipodal_ca, nan_angle)
    mixed = [tuple(np.array([[float(x) for x in tri[k]] for tri in specials]).T)
             for k in range(3)]
    with_rows = [tuple(np.concatenate([m, b]) for m, b in zip(mv, bv))
                 for mv, bv in zip(mixed, batch)]
    return {
        "single": single, "pole vertices": poles, "near the north pole": near_north,
        "near the south pole": near_south,
        "coincident b, c": coincident, "antipodal a, b": antipodal,
        "antipodal c, a": antipodal_ca, "NaN angle": nan_angle,
        "batch": batch, "batch with every special row": with_rows,
        "empty batch": [(np.zeros(0), np.zeros(0))] * 3,
    }


ANGLE_CASES = _angle_cases()


def both(vertices):
    """The triangle of the vertex angles, made now and as it was made."""
    points = [BlochPoint(*p) for p in vertices]
    return SphericalTriangle(*points), oracles.SphericalTriangle(*points)


@pytest.mark.parametrize("vertices", ANGLE_CASES.values(), ids=ANGLE_CASES.keys())
def test_angle_built_triangle_holds_the_earlier_vectors_and_states(vertices):
    t, earlier = both(vertices)
    same_bits(t.vectors, earlier.unit_vectors())
    same_bits(t.states, np.stack(earlier.states(), axis=-2))


@pytest.mark.parametrize("vertices", ANGLE_CASES.values(), ids=ANGLE_CASES.keys())
@pytest.mark.parametrize("kernel, earlier_kernel", [
    (solid_angle, oracles.solid_angle),
    (loop_holonomy, oracles.loop_holonomy),
    (lambda t: mixed_bargmann(t, 0.5), lambda t: oracles.angle_mixed_bargmann(t, 0.5)),
    (lambda t: mixed_bargmann(t, -0.3), lambda t: oracles.angle_mixed_bargmann(t, -0.3)),
], ids=["solid_angle", "loop_holonomy", "mixed_bargmann 0.5", "mixed_bargmann -0.3"])
def test_triangle_kernels(vertices, kernel, earlier_kernel):
    t, earlier = both(vertices)
    assert_same_outcome(outcome(kernel, t), outcome(earlier_kernel, earlier))


@pytest.mark.parametrize("vertices", ANGLE_CASES.values(), ids=ANGLE_CASES.keys())
def test_geodesic_unitary_on_vectors(vertices):
    points = [BlochPoint(*p) for p in vertices]
    fractions = np.linspace(0.1, 1.0, 4)[:, None] if np.ndim(points[0].theta) else 0.7
    for p, q in ((points[0], points[1]), (points[1], points[2]), (points[2], points[0])):
        for fraction in (1.0, fractions):
            assert_same_outcome(
                outcome(geodesic_unitary, p.unit_vector(), q.unit_vector(), fraction),
                outcome(oracles.geodesic_unitary, p, q, fraction))


SINGLES = {name: v for name, v in ANGLE_CASES.items() if np.ndim(v[0][0]) == 0}


@pytest.mark.parametrize("vertices", SINGLES.values(), ids=SINGLES.keys())
@pytest.mark.parametrize("n", [3, 4, 300, 1000])
def test_sample_triangle_path(vertices, n):
    t, earlier = both(vertices)
    got = outcome(lambda: transport.sample_triangle_path(t, n))
    want = outcome(lambda: oracles.sample_triangle_path(earlier, n))
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        same_bits(got[1].times, want[1].times)
        same_bits(got[1].states, want[1].states)


LAMS = {"one lam": 0.3, "lam rows": np.linspace(0.0, 1.0, 5)[:, None]}


@pytest.mark.parametrize("lam", LAMS.values(), ids=LAMS.keys())
@pytest.mark.parametrize("vertices", ANGLE_CASES.values(), ids=ANGLE_CASES.keys())
def test_pair_kernels(vertices, lam):
    """_pair_transport, simulate_loop_pair and the coincidence fringe
    franson_routes fits, on a loop and the same loop turned by a vertex."""
    t, earlier = both(vertices)
    turned = both(vertices[1:] + vertices[:1])
    pairs = ((t, turned[0]), (earlier, turned[1]))
    chis = _chi_grid(16)
    for kernel, earlier_kernel in (
            (twophoton._pair_transport, oracles._pair_transport),
            (lambda lam, a, ap: simulate_loop_pair(lam, a, ap).phase,
             lambda lam, a, ap: pancharatnam_phase(*oracles._pair_transport(
                 lam, a, ap)).phase),
            (lambda lam, a, ap: simulate_loop_pair(lam, a, ap).visibility,
             lambda lam, a, ap: pancharatnam_phase(*oracles._pair_transport(
                 lam, a, ap)).visibility),
            (lambda lam, a, ap: pure_interference_profile(*twophoton._pair_transport(
                lam, a, ap), chis),
             lambda lam, a, ap: pure_interference_profile(*oracles._pair_transport(
                 lam, a, ap), chis))):
        assert_same_outcome(outcome(kernel, lam, *pairs[0]),
                            outcome(earlier_kernel, lam, *pairs[1]))


def test_angle_cases_reach_every_outcome():
    """Values, NaN rows and each raise of the triangle kernels."""
    raised = set()
    for vertices in SINGLES.values():
        t, _ = both(vertices)
        for kernel in (solid_angle, loop_holonomy, lambda t: mixed_bargmann(t, 0.5)):
            result = outcome(kernel, t)
            if result[0] == "raise":
                raised.add(result[1].__name__)
    assert raised == {"AntipodalPointsError", "DegenerateTriangleError",
                      "OrthogonalStatesError"}
    t, _ = both(ANGLE_CASES["batch with every special row"])
    omega, holonomy = solid_angle(t), loop_holonomy(t)
    assert np.isnan(omega[[1, 4, 5, 6, 7]]).all()
    assert np.isfinite(np.delete(omega, [1, 4, 5, 6, 7])).all()
    assert np.isnan(holonomy[[1, 5, 6, 7]]).all()
    assert np.isfinite(np.delete(holonomy, [1, 5, 6, 7], axis=0)).all()


STATE_CASES = {
    "haar rows": checks.random_qubit_tuple(np.random.default_rng(31), 2000, 3),
    "haar grid": haar_state(np.random.default_rng(32), shape=(5, 40, 3)),
    "one triangle": checks.random_qubit_tuple(np.random.default_rng(33), 1, 3)[0],
    "poles and the equator": np.array([[1.0, 0.0], [0.0, 1j], [np.sqrt(0.5),
                                                               -np.sqrt(0.5)]]),
}


@pytest.mark.parametrize("states", STATE_CASES.values(), ids=STATE_CASES.keys())
def test_state_built_vectors(states):
    """The vectors are the states' own: within 4 ulps of 1 of the
    unnormalised Bloch vector of oracles, and within 2 of the exact unit
    vector in extended precision where numpy has one."""
    t = SphericalTriangle.from_states(states)
    same_bits(t.states, states)
    got = t.vectors
    assert got.shape == states.shape[:-1] + (3,)
    ulp = np.spacing(1.0)
    assert np.abs(got - oracles.bloch_vector(states)).max() <= 4 * ulp
    wide = np.longdouble
    if np.finfo(wide).eps < np.finfo(float).eps:
        a, b = states[..., 0], states[..., 1]
        ar, ai, br, bi = (x.astype(wide) for x in (a.real, a.imag, b.real, b.imag))
        pa, pb = ar * ar + ai * ai, br * br + bi * bi
        exact = np.stack([2 * (ar * br + ai * bi), 2 * (ar * bi - ai * br), pa - pb],
                         axis=-1) / (pa + pb)[..., None]
        assert np.abs(got - exact).max() <= 2 * ulp


NONDEGENERATE = {name: s for name, s in STATE_CASES.items()
                 if name != "poles and the equator"}


@pytest.mark.parametrize("states", NONDEGENERATE.values(), ids=NONDEGENERATE.keys())
def test_state_built_solid_angle_agrees_with_the_angle_route(states):
    got = solid_angle(SphericalTriangle.from_states(states))
    want = oracles.solid_angle(oracles.SphericalTriangle.from_states(
        *np.moveaxis(states, -2, 0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_nonadditivity_fixture_keeps_its_stat(seed):
    """The frozen four-station fixture keeps the stat it read when it
    formed transport legs its phase never used."""
    same_bits(checks.check_mixed_nonadditivity(seed).stat,
              float.fromhex("0x1.c72bf7d261680p-4"))


@pytest.mark.parametrize("states", [np.zeros((3, 3)), np.zeros((4, 2)),
                                    np.zeros((5, 2, 2)), np.zeros(2)],
                         ids=["qutrits", "four states", "two states", "one state"])
def test_from_states_takes_three_qubit_states(states):
    with pytest.raises(ValueError, match="three qubit states"):
        SphericalTriangle.from_states(states)


# ---------------------------------------------------------------------------
# the spin-up analyser fringe and its reading against dual_coincidence_profile

RANK_DEFICIENT = np.array([0.0, np.pi, 2.0 * np.pi])  # sine column vanishes
DUAL_CASES = {
    "battery grid": (*checks._dual_grid(), _chi_grid(64)),
    "one setup": (0.7, 0.4, _chi_grid(64)),
    "one setup, flat fringe": (np.pi / 2, np.pi, _chi_grid(64)),
    "rank-deficient grid, batch": (np.array([0.7, 1.9, 2.5]), -0.4, RANK_DEFICIENT),
    "rank-deficient grid, one setup": (0.7, 0.4, RANK_DEFICIENT),
    "empty batch": (np.zeros(0), np.zeros(0), _chi_grid(64)),
}


def spin_up_reading(theta, dphi, chis):
    up = analyser_intensities(theta, dphi, chis)[0]
    fitted = fit_fringe(chis, up)
    return up, fitted.phase, fitted.visibility


def earlier_spin_up_reading(theta, dphi, chis):
    profile = oracles.dual_coincidence_profile(theta, dphi, chis)
    return profile.intensities, profile.extracted.phase, profile.extracted.visibility


@pytest.mark.parametrize("theta, dphi, chis", DUAL_CASES.values(), ids=DUAL_CASES.keys())
def test_spin_up_reading(theta, dphi, chis):
    got = outcome(spin_up_reading, theta, dphi, chis)
    assert_same_outcome(got, outcome(earlier_spin_up_reading, theta, dphi, chis))
    if got[0] == "value":  # the flag it carried is the NaN phase
        want = oracles.dual_coincidence_profile(theta, dphi, chis).extracted
        same_bits(want.defined, ~np.isnan(got[1][1]))


def test_dual_cases_reach_every_outcome():
    got = {name: outcome(spin_up_reading, *case) for name, case in DUAL_CASES.items()}
    assert got["battery grid"][1][0].shape == (400, 64)
    assert not np.isnan(got["battery grid"][1][1]).any()
    assert np.isnan(got["one setup, flat fringe"][1][1])
    assert np.isnan(got["rank-deficient grid, batch"][1][1]).all()
    assert got["rank-deficient grid, one setup"][:2] == ("raise", IllConditionedError)


#: overlaps of every kind, and one that is infinite with a NaN part
OVERLAPS = np.array([0.3 + 0.4j, -1.0, 0.0, 1e-10j, complex(np.nan, 0.0),
                     complex(np.inf, 0.0), complex(np.inf, np.nan)])


@pytest.mark.parametrize("z", [OVERLAPS, *OVERLAPS], ids=["batch", *map(str, OVERLAPS)])
def test_from_overlap(z):
    def read(cls):
        res = cls.from_overlap(z, OrthogonalStatesError)
        return res.phase, res.visibility

    got, want = outcome(read, PhaseResult), outcome(read, oracles.PhaseResult)
    assert_same_outcome(got, want)
    if got[0] == "value":  # a single overlap gives floats, a batch arrays
        assert [type(x) for x in got[1]] == [type(x) for x in want[1]]


def test_the_earlier_flag_missed_one_nan_phase():
    """The flag and the NaN phase disagreed only on an infinite overlap
    with a NaN part, which read defined with a NaN phase."""
    earlier = oracles.PhaseResult.from_overlap(OVERLAPS, OrthogonalStatesError)
    phase = PhaseResult.from_overlap(OVERLAPS, OrthogonalStatesError).phase
    np.testing.assert_array_equal(earlier.defined != ~np.isnan(phase),
                                  np.arange(OVERLAPS.size) == OVERLAPS.size - 1)


# ---------------------------------------------------------------------------
# the cyclic overlap product of any number of states against the earlier
# three-state bargmann_invariant and multi_vertex_invariant

UP, DOWN = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
NAN_STATE = np.array([np.nan, 0.0], dtype=complex)


def _triple_cases():
    haar = haar_state(np.random.default_rng(0), shape=(2000, 3))
    # each link in turn vanishes: <a|c>, <c|b>, <b|a>
    orthogonal = [(UP, PLUS, DOWN), (PLUS, UP, DOWN), (UP, DOWN, PLUS)]
    nan = [(NAN_STATE, UP, PLUS), (UP, NAN_STATE, PLUS), (UP, PLUS, NAN_STATE)]
    mixed = np.concatenate([haar[:5], np.array(orthogonal), np.array(nan)])
    cases = {
        "Haar rows": tuple(haar.swapaxes(0, 1)),
        "one Haar triple": tuple(haar[0]),
        "qutrit Haar rows": tuple(haar_state(np.random.default_rng(1), 3,
                                             (300, 3)).swapaxes(0, 1)),
        "orthogonal and NaN rows among Haar rows": tuple(mixed.swapaxes(0, 1)),
        "one vertex against a batch": (UP, haar[:40, 1], haar[:40, 2]),
        "empty batch": tuple(haar[:0].swapaxes(0, 1)),
    }
    for k, triple in enumerate(orthogonal):
        cases[f"orthogonal link {k}"] = triple
    for k, triple in enumerate(nan):
        cases[f"NaN vertex {k}"] = triple
    return cases


TRIPLE_CASES = _triple_cases()


def error_type(fn, *args):
    """outcome without the message, since links are now named by position."""
    return outcome(fn, *args)[:2]


@pytest.mark.parametrize("states", TRIPLE_CASES.values(), ids=TRIPLE_CASES.keys())
def test_three_states_give_the_earlier_bits(states):
    """Three states keep the earlier product (<a|c><b|a>)<c|b> bit for
    bit, NaN rows included; a vanishing link raises the same error type,
    now named by position."""
    assert_same_outcome(error_type(geometry.bargmann_invariant, *states),
                        error_type(oracles.bargmann_invariant, *states))


def test_triple_cases_reach_every_outcome():
    got = {name: error_type(geometry.bargmann_invariant, *case)
           for name, case in TRIPLE_CASES.items()}
    rows = got["orthogonal and NaN rows among Haar rows"][1]
    assert np.isnan(rows).tolist() == [False] * 5 + [True] * 6
    for k, name in enumerate(["closing overlap <s0|s2>", "overlap <s2|s1>",
                              "overlap <s1|s0>"]):
        assert got[f"orthogonal link {k}"] == ("raise", OrthogonalStatesError)
        with pytest.raises(OrthogonalStatesError, match=f"^{re.escape(name)} vanishes"):
            geometry.bargmann_invariant(*TRIPLE_CASES[f"orthogonal link {k}"])
        assert got[f"NaN vertex {k}"] == ("raise", OrthogonalStatesError)


@pytest.mark.parametrize("seed", SEEDS)
def test_four_states_stay_within_1e_14_of_the_earlier_chain(seed):
    tuples = checks.random_qubit_tuple(np.random.default_rng([seed, 2]), 2000, 4)
    got = geometry.bargmann_invariant(*tuples.swapaxes(0, 1))
    want = oracles.multi_vertex_invariant(tuples.swapaxes(0, 1))
    assert np.abs(wrap_angle(got - want)).max() <= 1e-14


def reversal_sums(invariant, n, seed=0, count=2000):
    """invariant(s0, s1, ..., s_{n-1}) + invariant(s0, s_{n-1}, ..., s1)
    on ``count`` Haar n-tuples."""
    s = haar_state(np.random.default_rng(seed), shape=(count, n)).swapaxes(0, 1)
    forward = invariant(*s)
    backward = invariant(s[0], *s[:0:-1])
    assert not np.isnan(forward).any()
    return forward + backward


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reversal_negates_exactly(n):
    assert (reversal_sums(geometry.bargmann_invariant, n) == 0.0).all()


def test_the_earlier_chain_reversal_was_not_exact():
    sums = reversal_sums(lambda *s: oracles.multi_vertex_invariant(s), 4)
    assert 0 < np.count_nonzero(sums) and np.abs(sums).max() < 1e-15



# ---------------------------------------------------------------------------
# recorded outputs of the kernels rewritten to run along the time axis:
# SHA-256 digests (dtype, shape and bytes) and float.hex values that the
# earlier code gave on these cases, recorded once from it; a one-link path
# is a case of its own, as numpy rounds a one-element in-place product
# differently

def digest(*arrays):
    h = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _evolved(d, n, rows=5):
    h, psi0 = checks._random_generators(np.random.default_rng([d, n]), rows, d)
    return checks._evolved_path(h, psi0, n)


EVOLVED_PATHS = {
    (2, 64): "c669c8ead7d7bd1fec28e11812cc4fd6a0a63865c3101f4023a7e9cf4dcb0250",
    (2, 200): "a630629956549e8acbc793b1410e452686e6d651b3201c8457e96271fa09c3f3",
    (2, 1024): "773d83cc758dd10b938518ee59635352145416c7844b9147e7bcf71ec14e2042",
    (3, 64): "e820d3132cdb1e113545ba4576a80caa4251bedeb5d5bb73bc0caa22cbbfc1e1",
    (3, 200): "aa7b62f2adedf5b8f83c39db1751e48274e86e5d20b774b79462f30eb884a453",
    (3, 1024): "3a0bc7fca6c1875649ee40a88e3f06c39003255bb7ace0910a64dfe73d8e9171",
}


@pytest.mark.parametrize("d, n", EVOLVED_PATHS,
                         ids=[f"d {d}, n {n}" for d, n in EVOLVED_PATHS])
def test_evolved_path_gives_the_recorded_states(d, n):
    path = _evolved(d, n)
    assert digest(path.times, path.states, path.hamiltonian) == EVOLVED_PATHS[d, n]


def _lift_cases():
    batch = _evolved(2, 200, rows=6)
    broken = batch.states.copy()
    s0, s1 = broken[2, 40]
    broken[2, 41] = (-np.conj(s1), np.conj(s0))  # orthogonal: link 40 vanishes
    return {
        "single path": DiscretePath(batch.times, batch.states[0]),
        "single path, one link": DiscretePath(batch.times[::200], batch.states[0, ::200]),
        "batch": batch,
        "batch, one link each": DiscretePath(batch.times[::200], batch.states[:, ::200]),
        "qutrit batch": _evolved(3, 64),
        "batch with a broken row": DiscretePath(batch.times, broken),
    }


LIFT_CASES = _lift_cases()
LIFTS = {
    "single path":
        "228590536c2dc1e7ae15d6414e7f859e255fcc47032c7ed56369c3e2d81481c7",
    "single path, one link":
        "7967b7554715d47281f3e763fbfe255a119c35e1405d3dc49b56c577a3949a2f",
    "batch":
        "fac8a5cb07786fbb81eccad9b44f64e0dbfef310dcd5c40bdbc14790993501e3",
    "batch, one link each":
        "2af8aa4fe12c773a7626ad6d098ecc2b4e043bc6ae97ca539946c305402b59a7",
    "qutrit batch":
        "3b8d94681325c346bf75c94c0cf2a5fb8f4678e605e9f52a498b0472297e36cb",
    "batch with a broken row":
        "927b7052f0f11f6a265cdefcecb6a8560e0e3eb33ab7708b8846b72bcb6a9b91",
}


@pytest.mark.parametrize("name", LIFTS)
def test_parallel_lift_gives_the_recorded_states(name):
    lifted = transport.make_parallel_lift(LIFT_CASES[name])
    assert digest(lifted.times, lifted.states) == LIFTS[name]


REPHASED_PATHS = {
    0: "d2e58b61aaabccf5518c418a11ffafa204f31b3ba2461f4f22bdff8b0ec45fd1",
    20260809: "d244e32373235d725abf828e6c022f8a6193034c1cdd91b6f21a8b720b85e2ff",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_lift_independence_rephases_to_the_recorded_states(monkeypatch, seed):
    paths = []  # chain_phase(rephased), then chain_phase(path)
    monkeypatch.setattr(checks, "chain_phase",
                        lambda path: paths.append(path) or transport.chain_phase(path))
    checks.check_lift_independence(seed)
    rephased, path = paths
    assert not np.array_equal(rephased.states, path.states)
    assert digest(rephased.times, rephased.states) == REPHASED_PATHS[seed]


TRAPEZOID_PHASES = {  # rows (None: a single path), steps: float.hex of each phase
    (None, 1): "-0x1.22f2a494f8745p+0",
    (2, 1): ["-0x1.7b7c8b12319c4p-5", "0x1.15dc71da278f4p-2"],
    (None, 10**4): "-0x1.6670104b60c9cp+0",
    (None, 10**6): "-0x1.667010534279bp+0",
    (2, 10**4): ["-0x1.bf1f879a7c356p-6", "0x1.9e861917ba9c4p-2"],
    (2, 10**6): ["-0x1.bf1f87682a328p-6", "0x1.9e86192c26f15p-2"],
}


def _trapezoid_path(rows, n):
    """A precession path under the generator of other precessions, so its
    energies vary along it; rows=None gives a single path."""
    if rows is None:
        path, theta = precession(0.7, 4.0, n), 1.3
    else:
        path, theta = precession(THETAS[:rows], [1.5, -2.5][:rows], n), THETAS[-rows:]
    return DiscretePath(path.times, path.states, transport.precession_hamiltonian(theta))


@pytest.mark.parametrize("rows, n", TRAPEZOID_PHASES,
                         ids=[f"{'single' if r is None else 'batch'}, {n} steps"
                              for r, n in TRAPEZOID_PHASES])
def test_dynamical_phase_gives_the_recorded_trapezoid(rows, n):
    phase = transport.dynamical_phase(_trapezoid_path(rows, n))
    if rows is None:
        assert type(phase) is float and phase.hex() == TRAPEZOID_PHASES[None, n]
    else:
        assert [x.hex() for x in phase.tolist()] == TRAPEZOID_PHASES[rows, n]
