"""The batched route: rejection samplers, rowwise kernels and the checks
rewritten over them.

The samplers must draw what one-at-a-time sampling draws, the rowwise
kernels must agree with their single-row calls (and mark undefined rows
instead of raising), and every rewritten check must still fail when its
law is broken.
"""

import inspect

import numpy as np
import pytest

from pancha import checks, geometry, twophoton
from pancha.core import (
    BlochPoint,
    haar_state,
    inner_product,
    orthogonal_complement,
    wrap_angle,
)
from pancha.geometry import (
    SphericalTriangle,
    bargmann_invariant,
    geodesic_unitary,
    loop_holonomy,
    mixed_bargmann,
    mixed_solid_angle_phase,
    solid_angle,
)
from pancha.phase import fit_fringe, tilted_overlap
from pancha.twophoton import (
    entangled_phase_closed_form,
    simulate_loop_pair,
)

NORTH = BlochPoint(0.0, 0.0)
SOUTH = BlochPoint(np.pi, 0.0)


def sequential_tuples(rng, n, count, min_overlap=0.05):
    """Reference sampler: one tuple of Haar states at a time."""
    pairs = [(i, (i + 1) % count) for i in range(count)] + [(0, 2)]
    tuples = []
    while len(tuples) < n:
        states = [haar_state(rng) for _ in range(count)]
        if all(abs(inner_product(states[i], states[j])) > min_overlap
               for i, j in pairs):
            tuples.append(states)
    return np.array(tuples)


def sequential_triangles(rng, n, max_area):
    """Reference sampler: one triangle at a time, as (vertex states,
    vertex vectors, omegas)."""
    states, vectors, omegas = [], [], []
    while len(omegas) < n:
        tri = SphericalTriangle.from_states(sequential_tuples(rng, 1, 3)[0])
        omega = solid_angle(tri)
        if abs(omega) < max_area:
            states.append(tri.states)
            vectors.append(tri.vectors)
            omegas.append(omega)
    return np.array(states), np.array(vectors), np.array(omegas)


def stack(*triangles):
    """One batched triangle from the vertex states of single ones."""
    return SphericalTriangle.from_states(np.stack([t.states for t in triangles]))


def row(tri, k):
    """Row k of a batched triangle as a single triangle, made afresh from
    its vertex states."""
    return SphericalTriangle.from_states(tri.states[k])


def random_batch(seed, n, count=3):
    """n tuples of Haar states, vertex axis first, for unpacking."""
    return checks.random_qubit_tuple(np.random.default_rng(seed), n,
                                     count).swapaxes(0, 1)


class TestSamplersMatchSequentialDraws:
    @pytest.mark.parametrize("count", [3, 4])
    def test_tuples(self, count):
        batched_rng, reference_rng = (np.random.default_rng([5, count])
                                      for _ in range(2))
        got = checks.random_qubit_tuple(batched_rng, 400, count)
        want = sequential_tuples(reference_rng, 400, count)
        assert got.shape == (400, count, 2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        # the generator is left exactly where sequential draws leave it
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("max_area", [4.0 * np.pi, 2.0 * np.pi - 0.1, 1.0])
    def test_triangles(self, max_area):
        batched_rng, reference_rng = (np.random.default_rng(11) for _ in range(2))
        tri, omega = checks.random_triangle(batched_rng, 300, max_area=max_area)
        states, vectors, omegas = sequential_triangles(reference_rng, 300, max_area)
        np.testing.assert_allclose(tri.states, states, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(tri.vectors, vectors, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(omega, omegas, rtol=0.0, atol=1e-15)
        assert (np.abs(omega) < max_area).all()
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


class TestOrientationIsExact:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 20260809])
    def test_check_stat_is_zero(self, seed):
        result = checks.check_orientation(seed)
        assert result.stat == 0.0
        assert result.passed

    def test_batched_invariant_is_antisymmetric_row_by_row(self):
        a, b, c = random_batch(3, 2000)
        forward = bargmann_invariant(a, b, c)
        backward = bargmann_invariant(a, c, b)
        assert (wrap_angle(forward + backward) == 0.0).all()
        interior = np.abs(forward) < np.pi
        np.testing.assert_array_equal(backward[interior], -forward[interior])


class TestBatchedKernelsMatchScalarCalls:
    def test_bargmann_invariant(self):
        a, b, c = random_batch(21, 200)
        rows = bargmann_invariant(a, b, c)
        singles = [bargmann_invariant(*abc) for abc in zip(a, b, c)]
        np.testing.assert_allclose(rows, singles, rtol=0.0, atol=1e-14)

    def test_solid_angle_and_holonomy(self):
        tri, omega = checks.random_triangle(np.random.default_rng(22), 200)
        holonomies = loop_holonomy(tri)
        assert holonomies.shape == (200, 2, 2)
        np.testing.assert_array_equal(solid_angle(tri), omega)
        for k in range(200):
            assert abs(solid_angle(row(tri, k)) - omega[k]) <= 1e-14
            np.testing.assert_allclose(holonomies[k], loop_holonomy(row(tri, k)),
                                       rtol=0.0, atol=1e-14)

    def test_simulate_loop_pair(self):
        rng = np.random.default_rng(23)
        tri, _ = checks.random_triangle(rng, 400)
        tri_a, tri_ap = tri[0::2], tri[1::2]
        lam = rng.uniform(0.0, 1.0, 200)
        rows = simulate_loop_pair(lam, tri_a, tri_ap)
        for k in range(200):
            single = simulate_loop_pair(lam[k], row(tri_a, k), row(tri_ap, k))
            assert abs(wrap_angle(rows.phase[k] - single.phase)) <= 1e-14
            assert abs(rows.visibility[k] - single.visibility) <= 1e-14
        assert not np.isnan(rows.phase).any()

    def test_closed_forms(self):
        rng = np.random.default_rng(24)
        lam = rng.uniform(0.0, 1.0, 200)
        omega = rng.uniform(-2.0 * np.pi + 0.1, 2.0 * np.pi - 0.1, 200)
        omega_p = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 200)
        rows = entangled_phase_closed_form(lam, omega, omega_p)
        mixed = mixed_solid_angle_phase(2.0 * lam - 1.0, omega)
        overlaps = tilted_overlap(omega / 2.0, 2.0 * lam - 1.0)
        for k in range(200):
            single = entangled_phase_closed_form(lam[k], omega[k], omega_p[k])
            assert rows.phase[k] == single.phase
            assert rows.visibility[k] == single.visibility
            assert mixed[k] == mixed_solid_angle_phase(2.0 * lam[k] - 1.0, omega[k])
            assert overlaps[k] == tilted_overlap(omega[k] / 2.0, 2.0 * lam[k] - 1.0)

    def test_mixed_bargmann(self):
        tri, _ = checks.random_triangle(np.random.default_rng(25), 50)
        radii = np.linspace(0.1, 0.9, 50)
        rows = mixed_bargmann(tri, radii)
        for k in range(50):
            single = mixed_bargmann(row(tri, k), radii[k])
            assert abs(rows[k] - single) <= 1e-14


class TestUndefinedRows:
    def test_vanishing_overlap(self):
        a, b, c = (np.array(x, dtype=complex) for x in random_batch(26, 4))
        c[2] = orthogonal_complement(a[2])
        got = bargmann_invariant(a, b, c)
        assert np.isnan(got[2]) and np.isfinite(np.delete(got, 2)).all()

    def test_degenerate_triangle_and_antipodal_arc(self):
        x = BlochPoint(np.pi / 2, 0.0)
        y = BlochPoint(np.pi / 2, np.pi / 2)
        rows = stack(SphericalTriangle(NORTH, x, y), SphericalTriangle(NORTH, SOUTH, y))
        omega = solid_angle(rows)
        assert omega[0] == pytest.approx(np.pi / 2) and np.isnan(omega[1])
        arcs = geodesic_unitary(rows.vectors[:, 0], rows.vectors[:, 1])
        assert np.isfinite(arcs[0]).all() and np.isnan(arcs[1]).all()

    def test_coincident_arc_is_identity(self):
        points = BlochPoint(np.array([0.3, 1.2]), np.array([2.0, 5.0])).unit_vector()
        np.testing.assert_array_equal(geodesic_unitary(points, points),
                                      np.tile(np.eye(2), (2, 1, 1)))

    def test_vanishing_pair_overlap(self):
        octant = SphericalTriangle(NORTH, BlochPoint(np.pi / 2, 0.0),
                                   BlochPoint(np.pi / 2, np.pi / 2))
        eighth = SphericalTriangle(NORTH, BlochPoint(np.pi / 2, 0.0),
                                   BlochPoint(np.pi / 2, np.pi / 4))
        # areas pi/2 + pi/2 = pi at lam = 1/2 turn the pair orthogonal
        sim = simulate_loop_pair(0.5, stack(octant, eighth), stack(octant, octant))
        assert np.isnan(sim.phase[0]) and np.isfinite(sim.phase[1])
        closed = entangled_phase_closed_form(np.array([0.5, 0.5]),
                                             np.array([np.pi / 2, np.pi / 4]),
                                             np.pi / 2)
        np.testing.assert_array_equal(np.isnan(closed.phase), [True, False])

    def test_closed_form_domains(self):
        got = mixed_solid_angle_phase(np.array([0.0, 0.5, 0.5]),
                                      np.array([1.0, 2.0 * np.pi, 1.0]))
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])
        rows = mixed_bargmann(checks.random_triangle(np.random.default_rng(27), 2)[0],
                              np.array([0.0, 0.5]))
        assert np.isnan(rows[0]) and np.isfinite(rows[1])


def test_empty_batches_give_empty_rows():
    tri, _ = checks.random_triangle(np.random.default_rng(28), 2)
    none = np.zeros(2, dtype=bool)
    assert simulate_loop_pair(np.zeros(0), tri[none], tri[none]).phase.shape == (0,)
    chis = np.zeros((0, 8))
    profile = twophoton.franson_coincidence_profile(np.zeros(0), tri[none],
                                                    tri[none], chis)
    assert profile.shape == (0, 8)
    assert fit_fringe(chis, profile).visibility.shape == (0,)
    assert solid_angle(tri[none]).shape == (0,)
    assert mixed_bargmann(tri[none], 0.5).shape == (0,)


class TestRewrittenChecksStillFail:
    """Each batched comparison fails when the law it checks is broken."""

    @staticmethod
    def conjugate_tilted_overlap(monkeypatch):
        def conjugate(half, k):
            return np.conj(tilted_overlap(half, k))

        for module in (geometry, twophoton):
            monkeypatch.setattr(module, "tilted_overlap", conjugate)

    @staticmethod
    def negate_solid_angle(monkeypatch):
        real = checks.solid_angle
        monkeypatch.setattr(checks, "solid_angle", lambda t: -real(t))

    @pytest.mark.parametrize("check", [checks.check_mixed_solid_angle_law,
                                       checks.check_pair_oracle,
                                       checks.check_franson_fringe])
    def test_conjugated_tilted_overlap(self, monkeypatch, check):
        assert check(0).passed
        self.conjugate_tilted_overlap(monkeypatch)
        assert not check(0).passed

    @pytest.mark.parametrize("check", [checks.check_solid_angle_law,
                                       checks.check_holonomy_spectrum,
                                       checks.check_mixed_solid_angle_law])
    def test_negated_solid_angle(self, monkeypatch, check):
        self.negate_solid_angle(monkeypatch)
        assert not check(0).passed

    @pytest.mark.parametrize("seed", [0, 20260809])
    def test_identity_holonomy(self, monkeypatch, seed):
        def identities(t):
            return np.broadcast_to(np.eye(2), t.vectors.shape[:-2] + (2, 2))

        monkeypatch.setattr(checks, "loop_holonomy", identities)
        assert not checks.check_mixed_solid_angle_law(seed).passed

    def test_additivity(self, monkeypatch):
        real = checks.bargmann_invariant
        monkeypatch.setattr(checks, "bargmann_invariant",
                            lambda *states: -real(*states) if len(states) == 4
                            else real(*states))
        assert not checks.check_additivity(0).passed

    def test_orientation(self, monkeypatch):
        real = checks.bargmann_invariant
        monkeypatch.setattr(checks, "bargmann_invariant",
                            lambda a, b, c: np.abs(real(a, b, c)))
        assert not checks.check_orientation(0).passed

    def test_quantisation(self, monkeypatch):
        real = checks.simulate_loop_pair
        monkeypatch.setattr(checks, "simulate_loop_pair",
                            lambda lam, tri_a, tri_ap: real(0.3, tri_a, tri_ap))
        assert not checks.check_maximal_entanglement_quantisation(0).passed


#: instance counts, thresholds and modes the benchmark and the acceptance
#: criteria are sized against
CHECK_BUDGETS = {
    "check_solid_angle_law": (1000, 1e-9, "max"),
    "check_additivity": (1000, 1e-9, "max"),
    "check_orientation": (1000, 0.0, "max"),
    "check_holonomy_spectrum": (300, 1e-8, "max"),
    "check_mixed_profile_routes": (200, 1e-9, "max"),
    "check_mixed_solid_angle_law": (200, 1e-8, "max"),
    "check_trace_basis_independence": (200, 1e-10, "max"),
    "check_mixed_nonadditivity": (None, 1e-3, "min"),
    "check_pair_oracle": (500, 1e-8, "max"),
    "check_maximal_entanglement_quantisation": (300, 1e-8, "max"),
    "check_visibility_bound": (500, 1e-12, "max"),
    "check_franson_fringe": (100, 1e-8, "max"),
    "check_nonlinearity_law": (500, 1e-10, "max"),
    "check_ancilla_reduction": (500, 1e-10, "max"),
    "check_lift_independence": (100, 1e-10, "max"),
    "check_parallel_lift": (100, 1e-10, "max"),
    "check_cancellation_identity": (60, 1.0, "max"),
    "check_precession_three_way": (None, 1.0, "max"),
    "check_chain_convergence": (None, 1.9, "min"),
    "check_mixed_noncyclic": (None, 1e-8, "max"),
    "check_dual_fringe": (None, 1e-8, "max"),
    "check_duality_identity": (None, 1e-10, "max"),
    "check_channel_sum": (None, 1e-10, "max"),
    "check_arm_unitarity": (500, 1e-12, "max"),
    "check_final_state_expansion": (200, 1e-10, "max"),
}


def test_every_check_keeps_its_default_n():
    fns = {fn.__name__: fn for suite in checks.SUITES.values() for fn in suite}
    assert set(fns) == set(CHECK_BUDGETS)
    for name, fn in fns.items():
        n = inspect.signature(fn).parameters.get("n")
        assert (n.default if n is not None else None) == CHECK_BUDGETS[name][0], name


@pytest.mark.parametrize("name", [
    "check_solid_angle_law", "check_additivity", "check_orientation",
    "check_holonomy_spectrum", "check_mixed_solid_angle_law",
    "check_pair_oracle", "check_maximal_entanglement_quantisation",
    "check_franson_fringe", "check_ancilla_reduction",
])
def test_rewritten_checks_keep_threshold_and_mode(name):
    result = getattr(checks, name)(20260809)
    _, threshold, mode = CHECK_BUDGETS[name]
    assert (result.threshold, result.mode, result.passed) == (threshold, mode, True)
