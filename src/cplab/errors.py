"""Exception types shared across the lab.

Every failure mode that a caller is expected to branch on gets its own
class; plain ValueError is reserved for programming errors (bad arguments,
contract violations).
"""


class CplabError(Exception):
    """Base class for all package-specific errors."""


class InvalidProfileError(CplabError):
    """Profile function returned non-finite values or is malformed."""


class ResolutionTooCoarseError(CplabError):
    """Grid cannot resolve the domain (core thinner than a few cells)."""


class IndefiniteOperatorError(CplabError):
    """The linearized operator is not positive definite on the grid.

    Raised by the inner linear solver; callers treat it as a stability
    failure (no stable solution at this configuration).
    """


class EigenFailureError(CplabError):
    """Inverse iteration failed: no definite factor, a null vector or no convergence."""


class UndefinedQuotientError(CplabError):
    """Rayleigh quotient requested for an identically zero field."""


class GeometryViolationError(CplabError):
    """A reflected sample point left the domain during the moving-plane check."""


class InternalContradictionError(CplabError):
    """A structurally guaranteed property failed (e.g. no interior maximum
    found on a positive field with zero boundary data)."""


class TooCloseToBoundaryError(CplabError):
    """Requested a Hessian within two cells of the domain boundary."""


class OracleFailureError(CplabError):
    """The independent voxel oracle failed to converge."""


class OracleMismatchError(CplabError):
    """Voxel oracle and meridian solver disagree on the critical point census."""


class ConfigError(CplabError):
    """Malformed run configuration file."""
