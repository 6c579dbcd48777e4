"""Domain errors raised by the phase and geometry routines.

Everything derives from PhaseDomainError so callers (and the CLI) can
distinguish "the physics is undefined here" from programming errors.
"""


class PhaseDomainError(Exception):
    """A requested quantity is undefined for the given inputs."""


class OrthogonalStatesError(PhaseDomainError):
    """Relative phase requested between (numerically) orthogonal states."""


class VanishingTraceError(PhaseDomainError):
    """Tr(U rho) is numerically zero, so its argument is undefined."""


class IllConditionedError(PhaseDomainError):
    """Fringe-fit design matrix is rank deficient."""


class DegenerateTriangleError(PhaseDomainError):
    """Spherical triangle has coincident or antipodal vertices."""


class AntipodalPointsError(PhaseDomainError):
    """Geodesic between antipodal Bloch points is ambiguous."""


class AntipodalEndpointsError(PhaseDomainError):
    """Shortest closing geodesic is ambiguous for antipodal path endpoints."""


class DegenerateSpectrumError(PhaseDomainError):
    """Density-operator eigenvalues are degenerate; eigenbasis not unique."""


class BranchAmbiguityError(PhaseDomainError):
    """Requested point lies outside the supported arctan branch."""


class VanishingEndpointOverlapError(PhaseDomainError):
    """Path endpoints are orthogonal; open-path phase undefined."""


class UndefinedRatioError(PhaseDomainError):
    """Tangent ratio undefined (vanishing denominator or undefined phase)."""
