"""The edge-difference Girard kernel and the blocked geodesic-closure sum:
the closure's pole term against the general kernel arc by arc, accuracy
against the closed form and 40-digit references, blocking that does not
change the sum, and the guards at every block.

The stored references take minutes to recompute in mpmath; running this
file as a script (with ``pancha`` importable) prints them again."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancha import transport
from pancha.checks import PRECESSION_GRID
from pancha.core import BlochPoint, bloch_to_state, orthogonal_complement
from pancha.errors import AntipodalEndpointsError, DegenerateTriangleError
from pancha.geometry import SphericalTriangle, girard_signed_area
from pancha.transport import (
    DiscretePath,
    PrecessionSpec,
    geodesic_closure_solid_angle,
    precession_path,
    precession_phase_closed_form,
    sample_triangle_path,
)

from oracles import bloch_vector

B = transport._BLOCK
NORTH = np.array([0.0, 0.0, 1.0])


def reference_girard(mp, u, v, w):
    """Girard's excess from tangent-vector corner angles, signed by
    det[u, v, w], at the working precision of ``mp``; the float inputs are
    taken exactly and normalised there."""
    def unit(x):
        x = [mp.mpf(float(c)) for c in x]
        norm = mp.sqrt(sum(c * c for c in x))
        return [c / norm for c in x]

    def dot(p, q):
        return sum(a * b for a, b in zip(p, q))

    def cross(p, q):
        return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0]]

    u, v, w = unit(u), unit(v), unit(w)
    total = -mp.pi
    for apex, p, q in ((u, v, w), (v, w, u), (w, u, v)):
        tp = [a - dot(p, apex) * b for a, b in zip(p, apex)]
        tq = [a - dot(q, apex) * b for a, b in zip(q, apex)]
        total += mp.atan2(mp.sqrt(dot(cross(tp, tq), cross(tp, tq))), dot(tp, tq))
    return total if dot(u, cross(v, w)) >= 0 else -total


def test_thin_triangles_match_high_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    u = rng.standard_normal((40, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    step = np.cross(u, rng.standard_normal((40, 3)))
    step /= np.linalg.norm(step, axis=1)[:, None]
    v = u + 1e-6 * step
    v /= np.linalg.norm(v, axis=1)[:, None]
    w = rng.standard_normal((40, 3))
    w /= np.linalg.norm(w, axis=1)[:, None]
    got = girard_signed_area(u, v, w)
    with mpmath.workdps(50):
        want = np.array([float(reference_girard(mpmath.mp, *row))
                         for row in zip(u, v, w)])
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).min()


def random_arcs(seed, count):
    """Seeded unit arcs u -> v of 1e-7 to 2.5 rad in random directions:
    every third starts within 0.1 rad of the south pole, and the arcs
    longer than pi/2 have u.v < 0."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, 3))
    polar, azimuth = rng.uniform((np.pi - 0.1, 0.0), (np.pi, 2.0 * np.pi), (count, 2)).T
    u[::3] = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                       np.cos(polar)], axis=-1)[::3]
    u /= np.linalg.norm(u, axis=-1)[:, None]
    tangent = np.cross(u, rng.standard_normal((count, 3)))
    tangent /= np.linalg.norm(tangent, axis=-1)[:, None]
    length = 10.0 ** rng.uniform(-7.0, np.log10(2.5), (count, 1))
    v = np.cos(length) * u + np.sin(length) * tangent
    return u, v / np.linalg.norm(v, axis=-1)[:, None]


def test_pole_term_matches_the_general_kernel_arc_by_arc():
    u, v = random_arcs(9, 12_000)
    assert (np.einsum("ij,ij->i", u, v) < 0.0).sum() > 250
    assert (u[:, 2] < np.cos(np.pi - 0.1)).sum() >= 4000
    # each arc as a two-point ring of a batch: its swept area is its one term
    got, undefined = transport._swept_area(*np.moveaxis(np.stack([u, v], axis=1), -1, 0))
    assert not undefined.any()
    assert np.abs(got - girard_signed_area(u, v, NORTH)).max() <= 4e-15


def reference_closure(mp, path):
    """The sum of reference_girard(p, q, N) over the arcs of the path's
    closed ring of Bloch vectors (from oracles.bloch_vector, normalised at the
    working precision of ``mp``).  An arc from a point on the polar axis
    spans a triangle with two equal vertices, of no area, and is left out."""
    points = bloch_vector(path.states)
    ring = np.concatenate([points, points[:1]])
    total = mp.mpf(0)
    for p, q in zip(ring[:-1], ring[1:]):
        if not (p[0] == p[1] == 0.0 or q[0] == q[1] == 0.0):
            total += reference_girard(mp, p, q, NORTH)
    return total


def _pinned_triangle_path():
    return sample_triangle_path(SphericalTriangle(
        BlochPoint(0.3, 0.2), BlochPoint(1.2, 1.9), BlochPoint(2.0, 4.0)), 20_000)


#: reference_closure at 40 digits, to 30
CLOSURE_REFERENCES = {
    "precession(1.1, 2.2), 10^4 steps": (
        lambda: precession_path(PrecessionSpec(1.1, 2.2), 10_000),
        "0.457960522896977326841495860221"),
    "precession(0.4, -5.0), 3*10^4 steps": (
        lambda: precession_path(PrecessionSpec(0.4, -5.0), 30_000),
        "-0.472554678032725903629048515261"),
    "triangle path, 2*10^4 steps": (_pinned_triangle_path,
                                    "2.76782155400730134556704718578"),
    # within 0.084 rad of the north pole
    "precession(3.1, 6.0), 3000 steps": (
        lambda: precession_path(PrecessionSpec(3.1, 6.0), 3000),
        "-0.00543075148363213573930421041989"),
    # within 0.082 rad of the south pole
    "precession(1.53, 6.0), 3000 steps": (
        lambda: precession_path(PrecessionSpec(1.53, 6.0), 3000),
        "6.02684776457234205476458706212"),
    "precession(0.7, 4.0), 10^5 steps": (
        lambda: precession_path(PrecessionSpec(0.7, 4.0), 100_000),
        "1.16066207101213676099313190992"),
    "precession(0.9, 2.0), 3 steps": (
        lambda: precession_path(PrecessionSpec(0.9, 2.0), 3),
        "0.266379649003083086227614904015"),
}


@pytest.mark.parametrize("name", CLOSURE_REFERENCES)
def test_closure_matches_the_40_digit_reference(name):
    make, want = CLOSURE_REFERENCES[name]
    gap = geodesic_closure_solid_angle(make()) - float(want)
    assert abs((gap + np.pi) % (2.0 * np.pi) - np.pi) <= 3e-14


@pytest.mark.parametrize("name", ["precession(3.1, 6.0), 3000 steps",
                                  "precession(1.53, 6.0), 3000 steps",
                                  "precession(0.9, 2.0), 3 steps"])
def test_stored_references_are_the_sums(name):
    mpmath = pytest.importorskip("mpmath")
    make, want = CLOSURE_REFERENCES[name]
    with mpmath.workdps(40):
        assert abs(reference_closure(mpmath.mp, make()) - mpmath.mpf(want)) <= 1e-29


@pytest.mark.parametrize("theta, phi", [p for p in PRECESSION_GRID
                                        if p[0] == np.pi / 6])
def test_million_step_closure_matches_closed_form(theta, phi):
    spec = PrecessionSpec(theta, phi)
    omega = geodesic_closure_solid_angle(precession_path(spec, 10**6))
    assert abs(omega + 2.0 * precession_phase_closed_form(spec)) <= 1e-9


@pytest.mark.parametrize("steps", [1, B - 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
def test_blocking_leaves_the_sum(monkeypatch, steps):
    # a path of ``steps`` steps is a ring of steps + 1 segments
    path = precession_path(PrecessionSpec(0.9, 2.0), steps)
    blocked = geodesic_closure_solid_angle(path)
    monkeypatch.setattr(transport, "_BLOCK", 4 * B)
    assert abs(blocked - geodesic_closure_solid_angle(path)) <= 1e-12


def _path_with(states, index, state):
    states = states.copy()
    states[index] = state
    return DiscretePath(np.linspace(0.0, 1.0, len(states)), states)


SOUTH = np.array([0.0, 1.0], dtype=complex)
# a latitude circle, away from both poles, over one block and a bit
BASE = bloch_to_state(BlochPoint(np.full(B + 21, 1.0), np.linspace(0.0, 2.0, B + 21)))


@pytest.mark.parametrize("index", [B + 7, -1])
def test_south_pole_in_last_block_or_closing_segment(index):
    with pytest.raises(DegenerateTriangleError, match="south pole"):
        geodesic_closure_solid_angle(_path_with(BASE, index, SOUTH))


def test_antipodal_neighbours_in_last_block():
    path = _path_with(BASE, B + 8, orthogonal_complement(BASE[B + 7]))
    with pytest.raises(DegenerateTriangleError, match="antipodal"):
        geodesic_closure_solid_angle(path)


def test_antipodal_closing_segment():
    path = _path_with(BASE, -1, orthogonal_complement(BASE[0]))
    with pytest.raises(AntipodalEndpointsError):
        geodesic_closure_solid_angle(path)


def _reversed(path):
    return DiscretePath(path.times, path.states[::-1])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.3), st.floats(0.1, 6.0), st.integers(1, 3 * B))
def test_reversed_precession_negates(theta, phi, steps):
    path = precession_path(PrecessionSpec(theta, phi), steps)
    assert abs(geodesic_closure_solid_angle(_reversed(path))
               + geodesic_closure_solid_angle(path)) <= 1e-12


northern = st.tuples(st.floats(0.1, 1.4), st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=25, deadline=None)
@given(northern, northern, northern, st.integers(3, 3 * B))
def test_reversed_triangle_negates(a, b, c, steps):
    triangle = SphericalTriangle(BlochPoint(*a), BlochPoint(*b), BlochPoint(*c))
    path = sample_triangle_path(triangle, steps)
    assert abs(geodesic_closure_solid_angle(_reversed(path))
               + geodesic_closure_solid_angle(path)) <= 1e-12


def test_strided_states_are_validated():
    states = np.tile(bloch_to_state(BlochPoint(0.4, 1.0)), (6, 1))
    states[3] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="unit vectors"):
        path = DiscretePath(np.linspace(0.0, 1.0, 6), states[::-1])
        path.validate()
    DiscretePath(np.linspace(0.0, 1.0, 3), states[::2]).validate()


if __name__ == "__main__":
    import mpmath

    with mpmath.workdps(40):
        for name, (make, _) in CLOSURE_REFERENCES.items():
            print(name, mpmath.nstr(reference_closure(mpmath.mp, make()), 30))
