"""Bloch-sphere geometry: cyclic overlap invariants, signed solid angles,
geodesic transport unitaries, loop holonomies, and their mixed-state
weighted generalisation.

The three-state invariant arg(<A|C><C|B><B|A>) and the signed solid angle
of the corresponding spherical triangle are computed by two fully
independent routes (complex overlaps of states versus Girard's spherical
excess from the tangent-vector corner angles of unit vectors, the one
kernel ``girard_signed_area`` that also sums path areas in
``pancha.transport``), because the relation between them, invariant =
-Omega/2, is exactly the claim the test batteries verify.  The
Van Oosterom-Strackee form is the overlap product in Bloch vectors, so
it is not used: it would make that check nearly a tautology.

Sign convention, used consistently everywhere: a triangle whose vertices
run counter-clockwise when viewed from outside the sphere has positive
solid angle.  Equivalently the sign is that of det[a, b, c] of the vertex
unit vectors (the north pole, +x, +y octant is +pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    IDENTITY_2,
    BlochPoint,
    bloch_to_state,
    inner_product,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    state_to_bloch,
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


@dataclass(frozen=True)
class SphericalTriangle:
    """Ordered, oriented vertex triple on the Bloch sphere."""

    a: BlochPoint
    b: BlochPoint
    c: BlochPoint

    @classmethod
    def from_states(cls, sa, sb, sc) -> "SphericalTriangle":
        return cls(state_to_bloch(sa), state_to_bloch(sb), state_to_bloch(sc))

    def unit_vectors(self) -> np.ndarray:
        """3x3 array whose rows are the vertex unit vectors."""
        return np.array([p.unit_vector() for p in (self.a, self.b, self.c)])

    def states(self):
        return tuple(bloch_to_state(p) for p in (self.a, self.b, self.c))

    def reversed(self) -> "SphericalTriangle":
        """Same vertices, opposite orientation."""
        return SphericalTriangle(self.a, self.c, self.b)


def bargmann_invariant(a, b, c) -> float:
    """Cyclic three-state phase arg(<a|c><c|b><b|a>), principal branch.

    Invariant under independent rephasing of each state; conjugation-odd
    under swapping the last two arguments.

    Raises:
        OrthogonalStatesError: naming the first vanishing overlap.
    """
    f_ac = inner_product(a, c)
    f_cb = inner_product(c, b)
    f_ba = inner_product(b, a)
    for name, val in (("<a|c>", f_ac), ("<c|b>", f_cb), ("<b|a>", f_ba)):
        if abs(val) < EPS_ORTH:
            raise OrthogonalStatesError(f"overlap {name} vanishes ({abs(val):.3e})")
    # outer factors first: reversing (b, c) then conjugates the product
    # bit-for-bit, keeping the antisymmetry exact in floating point
    return principal_angle((f_ac * f_ba) * f_cb)


def multi_vertex_invariant(states) -> float:
    """Cyclic overlap phase generalized to n >= 2 states.

    Returns arg(<s0|s_{n-1}><s_{n-1}|s_{n-2}> ... <s1|s0>); for three
    states this is bargmann_invariant and the quantity is additive under
    splitting a polygon along a diagonal.

    Raises:
        OrthogonalStatesError: naming the first vanishing link.
    """
    states = list(states)
    if len(states) < 2:
        raise ValueError("need at least two states")
    product = inner_product(states[0], states[-1])
    if abs(product) < EPS_ORTH:
        raise OrthogonalStatesError(f"closing overlap <s0|s{len(states) - 1}> vanishes")
    for k in range(len(states) - 1, 0, -1):
        link = inner_product(states[k], states[k - 1])
        if abs(link) < EPS_ORTH:
            raise OrthogonalStatesError(f"overlap <s{k}|s{k - 1}> vanishes")
        product *= link
    return principal_angle(product)


def _rowdot(a, b) -> np.ndarray:
    """Dot products along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def girard_signed_area(u, v, w) -> np.ndarray:
    """Signed spherical excess of the triangles (u, v, w) of unit vectors.

    Rowwise over (..., 3) inputs, which broadcast against each other.
    Each interior angle is taken between the tangent vectors at its
    vertex; the sign is that of det[u, v, w].  No degeneracy guarding;
    callers must keep vertex pairs away from coincidence and antipodes.
    """
    u, v, w = (np.asarray(x, dtype=float) for x in (u, v, w))
    angles = []
    for apex, p, q in ((u, v, w), (v, w, u), (w, u, v)):
        tp = p - _rowdot(p, apex)[..., None] * apex
        tq = q - _rowdot(q, apex)[..., None] * apex
        angles.append(np.arctan2(np.linalg.norm(np.cross(tp, tq), axis=-1),
                                 _rowdot(tp, tq)))
    excess = sum(angles) - np.pi
    return np.where(_rowdot(u, np.cross(v, w)) >= 0.0, excess, -excess)


def solid_angle(t: SphericalTriangle) -> float:
    """Signed solid angle of the geodesic triangle, in steradians.

    Computed from the spherical excess of the interior angles, with the
    sign of det[a, b, c]; this route never touches quantum states, so it
    can cross-check the overlap-product invariant independently.

    Raises:
        DegenerateTriangleError: for coincident or antipodal vertex pairs.
    """
    vecs = t.unit_vectors()
    following = np.roll(vecs, -1, axis=0)
    degenerate = np.linalg.norm(np.cross(vecs, following), axis=1) < EPS_GEO
    if degenerate.any():
        i = int(np.argmax(degenerate))
        kind = "coincident" if np.dot(vecs[i], following[i]) > 0.0 else "antipodal"
        names = "abca"[i:i + 2]
        raise DegenerateTriangleError(f"vertices {names[0]}, {names[1]} are {kind}")
    return float(girard_signed_area(vecs[0], vecs[1], vecs[2]))


def geodesic_unitary(p: BlochPoint, q: BlochPoint, fraction=1.0) -> np.ndarray:
    """SU(2) rotation by ``fraction`` of the great-circle arc from p to q.

    Rotates about (p x q)/|p x q|; the whole arc maps the state at p to
    the state at q up to a global phase.  An array of fractions gives
    fraction.shape + (2, 2) rotations; p = q gives identities.

    Raises:
        AntipodalPointsError: if p and q are antipodal within EPS_GEO.
    """
    u = p.unit_vector()
    v = q.unit_vector()
    cross = np.cross(u, v)
    sine = np.linalg.norm(cross)
    cosine = float(np.dot(u, v))
    if sine < EPS_GEO:
        if cosine < 0.0:
            raise AntipodalPointsError("rotation axis undefined for antipodal points")
        return np.tile(IDENTITY_2, np.shape(fraction) + (1, 1))
    return matrix_exponential_su2(cross / sine, np.arctan2(sine, cosine) * fraction)


def loop_holonomy(t: SphericalTriangle) -> np.ndarray:
    """Net unitary for transporting around the triangle a -> b -> c -> a.

    The state at vertex a is an eigenvector with eigenvalue
    exp(-i Omega / 2); its orthogonal complement picks up the opposite
    phase (the determinant is one).
    """
    u_ab = geodesic_unitary(t.a, t.b)
    u_bc = geodesic_unitary(t.b, t.c)
    u_ca = geodesic_unitary(t.c, t.a)
    return u_ca @ u_bc @ u_ab


@dataclass(frozen=True)
class MixedTriple:
    """Spectral data of a nondegenerate density-operator sequence.

    ``weights`` are the shared eigenvalues; ``basis_a/b/c`` hold the
    eigenvectors (as matrix columns, column k belonging to weights[k]) at
    the three stations; ``u`` is the unitary that carries the first
    station to the third via the second.
    """

    weights: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    basis_c: np.ndarray
    u: np.ndarray

    def validate(self) -> "MixedTriple":
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12 or (w < -1e-12).any() or (w > 1 + 1e-12).any():
            raise ValueError("weights must lie in [0, 1] and sum to 1")
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if abs(w[i] - w[j]) < 1e-12:
                    raise DegenerateSpectrumError(
                        f"weights {i} and {j} coincide; eigenbases not unique"
                    )
        dim = len(w)
        for name, basis in (("a", self.basis_a), ("b", self.basis_b),
                            ("c", self.basis_c)):
            basis = np.asarray(basis, dtype=complex)
            if basis.shape != (dim, dim):
                raise ValueError(f"basis {name} must be {dim}x{dim}")
            defect = np.abs(basis.conj().T @ basis - np.eye(dim)).max()
            if defect > 1e-10:
                raise ValueError(f"basis {name} not orthonormal (defect {defect:.3e})")
        return self

    def reversed(self) -> "MixedTriple":
        """Opposite orientation: stations b and c swapped, transport inverted."""
        return MixedTriple(self.weights, self.basis_a, self.basis_c, self.basis_b,
                           np.asarray(self.u, dtype=complex).conj().T)


def mixed_chain_invariant(weights, bases, u) -> float:
    """Weighted cyclic invariant arg(sum_k w_k |<A_k|U|A_k>| e^{i d_k}).

    ``bases`` is a sequence of station eigenbases (columns = eigenvectors)
    and d_k is the pure multi-vertex invariant of the k-th eigenvector
    chain.  Nonlinear in the pure invariants, hence not additive under
    polygon splitting, unlike its pure counterpart.
    """
    weights = np.asarray(weights, dtype=float)
    bases = [np.asarray(b, dtype=complex) for b in bases]
    u = np.asarray(u, dtype=complex)
    total = 0.0j
    for k, w in enumerate(weights):
        start = bases[0][:, k]
        modulus = abs(inner_product(start, u @ start))
        if modulus < EPS_ORTH:
            raise OrthogonalStatesError(f"|<A_{k}|U|A_{k}>| vanishes")
        delta = multi_vertex_invariant([basis[:, k] for basis in bases])
        total += w * modulus * np.exp(1j * delta)
    if abs(total) < EPS_ORTH:
        raise OrthogonalStatesError("weighted invariant sum vanishes")
    return principal_angle(total)


def mixed_bargmann(mt: MixedTriple) -> float:
    """Three-station weighted invariant of a nondegenerate mixed state.

    Reduces to bargmann_invariant for a single unit weight and is
    orientation-odd: reversing the station order while inverting the
    transport negates it.

    Raises:
        DegenerateSpectrumError: for coinciding weights.
        OrthogonalStatesError: if any diagonal transport overlap vanishes.
    """
    mt.validate()
    return mixed_chain_invariant(
        mt.weights, [mt.basis_a, mt.basis_b, mt.basis_c], mt.u
    )


def qubit_mixed_triple(t: SphericalTriangle, r: float) -> MixedTriple:
    """Mixed triple of a qubit with Bloch radius r transported around ``t``.

    Weights are ((1+r)/2, (1-r)/2); the eigenbases sit at the three
    vertices (vertex state plus orthogonal complement) and the transport
    is the composition of the two leading geodesic-segment unitaries,
    a -> b followed by b -> c.
    """
    sa, sb, sc = t.states()
    u = geodesic_unitary(t.b, t.c) @ geodesic_unitary(t.a, t.b)
    return MixedTriple(
        weights=np.array([(1.0 + r) / 2.0, (1.0 - r) / 2.0]),
        basis_a=np.column_stack([sa, orthogonal_complement(sa)]),
        basis_b=np.column_stack([sb, orthogonal_complement(sb)]),
        basis_c=np.column_stack([sc, orthogonal_complement(sc)]),
        u=u,
    )


def mixed_solid_angle_phase(r: float, omega: float) -> float:
    """Closed-form mixed-state phase for a qubit triangle of solid angle omega.

    Returns arg(cos(omega/2) - i r sin(omega/2)), the branch of
    -arctan(r tan(omega/2)) that is continuous in omega at 0 and follows
    the weighted eigenphase sum through the tangent poles.  For |r| = 1
    this is the pure-state -omega/2 (wrapped).

    Raises:
        DegenerateSpectrumError: for r = 0 (degenerate spectrum).
        BranchAmbiguityError: for |omega| >= 2*pi, outside the supported
            single-turn branch.
    """
    if abs(r) < 1e-12:
        raise DegenerateSpectrumError("r = 0 leaves the eigenbasis undefined")
    if not -1.0 <= r <= 1.0:
        raise ValueError("Bloch radius must lie in [-1, 1]")
    if abs(omega) >= 2.0 * np.pi:
        raise BranchAmbiguityError("|omega| >= 2*pi is outside the single-turn branch")
    return principal_angle(tilted_overlap(omega / 2.0, r))
