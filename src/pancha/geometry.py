"""Bloch-sphere geometry: cyclic overlap invariants, signed solid angles,
geodesic transport unitaries, loop holonomies, and their mixed-state
weighted generalisation.

The three-state invariant arg(<A|C><C|B><B|A>) and the signed solid angle
of the corresponding spherical triangle are computed by two fully
independent routes (complex overlaps of states versus Girard's spherical
excess from the tangent-vector corner angles of unit vectors, the kernel
``girard_signed_area``), because the relation between them, invariant =
-Omega/2, is exactly the claim the test batteries verify.  The kernel
works on edge differences, so thin triangles keep their relative
accuracy.  The geodesic closure in ``pancha.transport`` sums the thin
triangles a long path sweeps against the north pole with the pole case of
the same corner-angle excess, written out for w = N and fused with its
guards; the tests hold it to this kernel row by row.  Both must stay sums
of corner angles.  The Van Oosterom-Strackee form is the overlap product
in Bloch vectors, so it is not used: it would make the triangle check
nearly a tautology, and summed over pole triangles it telescopes into the
overlap chain, which would make the geodesic-closure area a copy of the
chain phase it is compared with.  bargmann_invariant is the one cyclic
overlap product, of any n >= 2 states.  A triangle holds the vertex unit
vectors and states its kernels read; geodesic_unitary takes unit vectors.
The mixed-state law takes a triangle and a Bloch radius: mixed_bargmann
forms the qubit's weights and vertex eigenbases, valid by construction,
and evaluates mixed_chain_invariant, the weighted invariant of any
station eigenbases.  It holds no transport: for a qubit the transport
enters the weighted sum only as a modulus common to both eigenvectors,
which drops out of the arg.  Its independent route is arg Tr(rho H) with
H the loop holonomy (``check_mixed_solid_angle_law``).

Sign convention, used consistently everywhere: a triangle whose vertices
run counter-clockwise when viewed from outside the sphere has positive
solid angle.  Equivalently the sign is that of det[a, b, c] of the vertex
unit vectors (the north pole, +x, +y octant is +pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    BlochPoint,
    _cis,
    _dot,
    _unit_bloch,
    bloch_to_state,
    from_parts,
    mark_undefined,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    undefined_rows,
    wrap_angle,
)
from .errors import (
    AntipodalPointsError,
    BranchAmbiguityError,
    DegenerateSpectrumError,
    DegenerateTriangleError,
    OrthogonalStatesError,
)
from .phase import EPS_ORTH, tilted_overlap

#: below this |p x q| a rotation axis (or closing geodesic) is undefined
EPS_GEO = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class SphericalTriangle:
    """Ordered, oriented vertex triple on the Bloch sphere, holding its
    vertex unit vectors ``vectors`` (..., 3, 3) and states ``states``
    (..., 3, 2), made from three BlochPoint or by ``from_states``.  Leading
    axes make a batch, one triangle per row, which every kernel takes."""

    vectors: np.ndarray
    states: np.ndarray

    def __init__(self, a: BlochPoint, b: BlochPoint, c: BlochPoint):
        self.__dict__.update(
            vectors=np.stack([p.unit_vector() for p in (a, b, c)], axis=-2),
            states=np.stack([bloch_to_state(p) for p in (a, b, c)], axis=-2))

    @classmethod
    def from_states(cls, states) -> "SphericalTriangle":
        """The triangles of the vertex states (..., 3, 2), kept as given."""
        states = np.asarray(states, dtype=complex)
        if states.shape[-2:] != (3, 2):
            raise ValueError("a triangle takes three qubit states, (..., 3, 2)")
        return cls._of(np.stack(_unit_bloch(states), axis=-1), states)

    @classmethod
    def _of(cls, vectors, states) -> "SphericalTriangle":
        t = object.__new__(cls)
        t.__dict__.update(vectors=vectors, states=states)
        return t

    def __getitem__(self, rows) -> "SphericalTriangle":
        """The triangles at ``rows`` of a batch."""
        return self._of(self.vectors[rows], self.states[rows])


def _guard(overlaps):
    """Rows where any of the named overlaps vanishes or is NaN.  For a
    single row the first such one, in the given order, raises instead."""
    undefined = False
    for name, z in overlaps:
        modulus = np.hypot(np.real(z), np.imag(z))
        undefined = undefined | undefined_rows(
            ~(modulus >= EPS_ORTH), OrthogonalStatesError,
            lambda: f"{name} vanishes ({modulus:.3e})")
    return undefined


def _exact_overlap(x, y):
    """<x|y> rowwise from real and imaginary parts, adding xr yr + xi yi to
    Re and xr yi - xi yr to Im one component at a time, so that <y|x> is
    its conjugate bit for bit in IEEE arithmetic, whatever path a BLAS or
    a vectorised complex product would take."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    re = im = 0.0
    for k in range(x.shape[-1]):
        xr, xi, yr, yi = x[..., k].real, x[..., k].imag, y[..., k].real, y[..., k].imag
        re, im = re + (xr * yr + xi * yi), im + (xr * yi - xi * yr)
    return from_parts(re, im)


def _times(p, q):
    """The complex product of (re, im) pairs, as an (re, im) pair."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _product(links):
    """Product of complex links (or rows of them) from real and imaginary
    parts: the j-th times the j-th from the end, then these pair products
    left to right, then the middle link when their count is odd.  Each
    pair product is symmetric in IEEE arithmetic, so reversing the links
    and conjugating each conjugates the product bit for bit."""
    parts = [(z.real, z.imag) for z in links]
    n = len(parts)
    factors = [_times(parts[j], parts[-1 - j]) for j in range(n // 2)]
    return from_parts(*reduce(_times, factors + parts[n // 2:n - n // 2]))


def bargmann_invariant(*states):
    """Cyclic overlap phase arg(<s0|s_{n-1}><s_{n-1}|s_{n-2}> ... <s1|s0>)
    of n >= 2 states, principal branch; arg(<a|c><c|b><b|a>) for three.

    Invariant under rephasing each state, additive under splitting a
    polygon along a diagonal, and negated exactly in floating point by
    reversing s1 ... s_{n-1}, which reverses and conjugates the links:
    they and their product are formed from real and imaginary parts, the
    product in the order of _product ((<a|c><b|a>)<c|b> for three).
    Rowwise over (..., d) states; a batch gives NaN in the rows with a
    vanishing link.

    Raises:
        ValueError: for fewer than two states.
        OrthogonalStatesError: naming the first vanishing link of a
            single chain.
    """
    n = len(states)
    if n < 2:
        raise ValueError("need at least two states")
    pairs = [(0, n - 1)] + [(k, k - 1) for k in range(n - 1, 0, -1)]
    links = [_exact_overlap(states[i], states[j]) for i, j in pairs]
    undefined = _guard([(f"{'closing ' if i == 0 else ''}overlap <s{i}|s{j}>", z)
                        for (i, j), z in zip(pairs, links)])
    return mark_undefined(principal_angle(_product(links)), undefined)


def _dot3(p, q):
    """Dot product of two component triples."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross3(p, q):
    """Cross product of two component triples: np.cross's bits."""
    return [p[i - 2] * q[i - 1] - p[i - 1] * q[i - 2] for i in range(3)]


def _edge(p, q):
    """The edge q - s p of the unit vectors p and q, by components, and
    its sign s: +1 where p.q >= 0, else -1, so the edge is a short
    difference for a near pair and a short sum for a near-antipodal one.
    At p its tangent part is that of q - p; the edge from q towards p is
    -s times it."""
    sign = np.where(_dot3(p, q) >= 0.0, 1.0, -1.0)
    return [b - sign * a for a, b in zip(p, q)], sign


def girard_signed_area(u, v, w) -> np.ndarray:
    """Signed spherical excess of the triangles (u, v, w) of unit vectors.

    Rowwise over (..., 3) inputs, which broadcast against each other.
    Each interior angle is taken between the tangent vectors at its
    vertex, in edge-difference form on components: at apex a with
    neighbours p and q the tangent dot product is
    (p-a).(q-a) - ((p-a).a)((q-a).a), and the three corners share one
    sine, |det(u, v-u, w-u)| = |det[u, v, w]|.  An edge to a vertex
    nearer the antipode of a is taken as p + a instead (see _edge), which
    leaves both products unchanged.  The excess, the sum of the three
    angles minus pi, is signed by det[u, v, w]; pi minus the angle at v
    is taken as arctan2(sine, -cos_v), so no rounded pi enters (np.pi
    falls 1.2e-16 short, a bias a sum of 10^6 pole triangles would carry
    to 1.2e-10).  Every factor is formed from short edges, never from
    differences of nearly equal or nearly opposite unit vectors, so a
    thin triangle keeps its relative accuracy; the form is best
    conditioned when u-v is the shortest side.  No degeneracy guarding;
    callers must keep vertex pairs away from coincidence and antipodes.
    """
    u, v, w = (tuple(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
               for x in (u, v, w))
    (uv, s_uv), (uw, s_uw), (vw, s_vw) = _edge(u, v), _edge(u, w), _edge(v, w)
    det = _dot3(u, _cross3(uv, uw))
    sine = np.abs(det)
    # apex u sees the edges uv and uw, apex v the edges vw and -s_uv uv,
    # apex w the edges -s_uw uw and -s_vw vw
    cos_u = _dot3(uv, uw) - _dot3(uv, u) * _dot3(uw, u)
    cos_v = s_uv * (_dot3(vw, v) * _dot3(uv, v) - _dot3(vw, uv))
    cos_w = s_uw * s_vw * (_dot3(uw, vw) - _dot3(uw, w) * _dot3(vw, w))
    excess = (np.arctan2(sine, cos_u) - np.arctan2(sine, -cos_v)
              + np.arctan2(sine, cos_w))
    return np.where(det >= 0.0, excess, -excess)


def solid_angle(t: SphericalTriangle):
    """Signed solid angle of the geodesic triangle, in steradians.

    Computed from the spherical excess of the interior angles, with the
    sign of det[a, b, c]; this route never touches quantum states, so it
    can cross-check the overlap-product invariant independently.  A batch
    of triangles gives one angle per row, NaN where a row is degenerate.

    Raises:
        DegenerateTriangleError: for coincident or antipodal vertex pairs
            of a single triangle.
    """
    vecs = t.vectors
    following = np.roll(vecs, -1, axis=-2)
    cross = _cross3(*(np.moveaxis(x, -1, 0) for x in (vecs, following)))
    degenerate = np.sqrt(_dot3(cross, cross)) < EPS_GEO  # np.linalg.norm's bits

    def message():
        i = int(np.argmax(degenerate))
        kind = "coincident" if np.dot(vecs[i], following[i]) > 0.0 else "antipodal"
        names = "abca"[i:i + 2]
        return f"vertices {names[0]}, {names[1]} are {kind}"

    undefined = undefined_rows(degenerate.any(axis=-1), DegenerateTriangleError,
                               message)
    omega = girard_signed_area(vecs[..., 0, :], vecs[..., 1, :], vecs[..., 2, :])
    return mark_undefined(omega, undefined)


def solid_angle_routes(t: SphericalTriangle):
    """The overlap-product invariant against -Omega/2 from the excess."""
    invariant = bargmann_invariant(*(t.states[..., k, :] for k in range(3)))
    omega = solid_angle(t)
    return ({"invariant": invariant, "solid_angle": omega},
            {"invariant_vs_half_area": abs(wrap_angle(invariant + omega / 2.0))})


def geodesic_unitary(u, v, fraction=1.0) -> np.ndarray:
    """SU(2) rotation by ``fraction`` of the great-circle arc from the
    unit vector u to the unit vector v.

    Rotates about (u x v)/|u x v|; the whole arc maps the state at u to
    the state at v up to a global phase.  Rowwise over (..., 3) vectors,
    broadcast against an array of fractions: the result has shape
    broadcast(u.shape[:-1], v.shape[:-1], fraction.shape) + (2, 2).
    u = v gives identities; antipodal rows of a batch are NaN.

    Raises:
        AntipodalPointsError: if u and v are single antipodal vectors
            (within EPS_GEO).
    """
    cross = np.stack(_cross3(*(np.moveaxis(x, -1, 0) for x in (u, v))), axis=-1)
    sine = np.sqrt(_dot(cross, cross))
    cosine = _dot(u, v)
    degenerate = sine < EPS_GEO
    antipodal = undefined_rows(degenerate & (cosine < 0.0), AntipodalPointsError,
                               "rotation axis undefined for antipodal points")
    # a degenerate row turns by zero about any axis: the identity
    axis = np.where(degenerate[..., None], (0.0, 0.0, 1.0),
                    cross / np.where(degenerate, 1.0, sine)[..., None])
    angle = np.where(degenerate, 0.0, np.arctan2(sine, cosine))
    rotation = matrix_exponential_su2(axis, angle * np.asarray(fraction, dtype=float))
    if antipodal.any():
        rotation = np.where(antipodal[..., None, None], np.nan, rotation)
    return rotation


def loop_holonomy(t: SphericalTriangle) -> np.ndarray:
    """Net unitary for transporting around the triangle a -> b -> c -> a.

    The state at vertex a is an eigenvector with eigenvalue
    exp(-i Omega / 2); its orthogonal complement picks up the opposite
    phase (the determinant is one).  A batch gives (..., 2, 2).
    """
    a, b, c = (t.vectors[..., k, :] for k in range(3))
    u_ab, u_bc = geodesic_unitary(a, b), geodesic_unitary(b, c)
    return geodesic_unitary(c, a) @ u_bc @ u_ab


def mixed_chain_invariant(weights, bases):
    """Weighted cyclic invariant arg(sum_k w_k e^{i d_k}).

    ``bases`` is a sequence of station eigenbases (columns = eigenvectors)
    and d_k is bargmann_invariant of the k-th eigenvector chain.
    Nonlinear in the pure invariants, hence not additive under polygon
    splitting, unlike its pure counterpart.  Reversing the stations after
    the first negates it exactly, as it does each d_k.  Rowwise over
    leading axes, NaN where a batch row has a vanishing link or sum.

    Raises:
        OrthogonalStatesError: for a single chain with a vanishing link
            or weighted sum.
    """
    weights = np.asarray(weights, dtype=float)
    bases = [np.asarray(b, dtype=complex) for b in bases]
    deltas = [bargmann_invariant(*(basis[..., :, k] for basis in bases))
              for k in range(weights.shape[-1])]
    total = sum(weights[..., k] * _cis(delta) for k, delta in enumerate(deltas))
    undefined = _guard([("weighted invariant sum", total)])
    return mark_undefined(principal_angle(total), undefined)


def _eigenbasis(state) -> np.ndarray:
    """Columns: the qubit state and its orthogonal complement."""
    return np.stack([state, orthogonal_complement(state)], axis=-1)


def mixed_bargmann(t: SphericalTriangle, r):
    """Weighted invariant of a qubit with Bloch radius r around ``t``.

    The weights are ((1+r)/2, (1-r)/2) and the eigenbases sit at the three
    vertices (vertex state plus orthogonal complement); the phase is
    mixed_chain_invariant of these.  Reduces to bargmann_invariant at
    r = 1, and swapping b and c negates it exactly.  r may be one radius,
    one per triangle of a batch, or (k, 1) radii against n triangles,
    giving k by n phases.  The radius is tested first.  A batch gives NaN
    in its rows with |r| < 1e-12, with a NaN radius or with a vanishing
    link (as antipodal vertices make).

    Raises:
        ValueError: for |r| > 1 + 2e-12, where the weights fall off
            [0, 1] (a NaN radius passes this test).
        DegenerateSpectrumError: for a single radius with |r| < 1e-12.
        OrthogonalStatesError: if a link or the weighted sum of a single
            triangle vanishes or is NaN (as a NaN radius makes it).
    """
    r = np.asarray(r, dtype=float)
    if (np.abs(r) > 1.0 + 2e-12).any():
        raise ValueError("weights must lie in [0, 1] and sum to 1")
    w = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0], axis=-1)
    degenerate = undefined_rows(
        np.abs(w[..., 0] - w[..., 1]) < 1e-12, DegenerateSpectrumError,
        "weights 0 and 1 coincide; eigenbases not unique")
    bases = [_eigenbasis(t.states[..., k, :]) for k in range(3)]
    return mark_undefined(mixed_chain_invariant(w, bases), degenerate)


def mixed_solid_angle_phase(r, omega):
    """Closed-form mixed-state phase for a qubit triangle of solid angle omega.

    Returns arg(cos(omega/2) - i r sin(omega/2)), the branch of
    -arctan(r tan(omega/2)) that is continuous in omega at 0 and follows
    the weighted eigenphase sum through the tangent poles.  For |r| = 1
    this is the pure-state -omega/2 (wrapped).  Arrays broadcast, with NaN
    in the rows a single call would reject as degenerate or multi-turn.

    Raises:
        DegenerateSpectrumError: for r = 0 (degenerate spectrum).
        ValueError: for any |r| > 1.
        BranchAmbiguityError: for |omega| >= 2*pi, outside the supported
            single-turn branch.
    """
    r, omega = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(omega, dtype=float))
    degenerate = undefined_rows(np.abs(r) < 1e-12, DegenerateSpectrumError,
                                "r = 0 leaves the eigenbasis undefined")
    if not (np.abs(r) <= 1.0).all():
        raise ValueError("Bloch radius must lie in [-1, 1]")
    multiturn = undefined_rows(np.abs(omega) >= 2.0 * np.pi, BranchAmbiguityError,
                               "|omega| >= 2*pi is outside the single-turn branch")
    return mark_undefined(principal_angle(tilted_overlap(omega / 2.0, r)),
                          degenerate | multiturn)


def mixed_solid_angle_routes(t: SphericalTriangle, r, omega):
    """The weighted invariant against the closed form at solid angles ``omega``."""
    weighted = mixed_bargmann(t, r)
    closed = mixed_solid_angle_phase(r, omega)
    return ({"mixed_invariant": weighted, "mixed_closed_form": closed},
            {"mixed_vs_closed_form": abs(wrap_angle(weighted - closed))})
