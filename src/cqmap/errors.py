"""Exception taxonomy shared by all cqmap modules.

Three failure classes map one-to-one onto the CLI exit codes:
ValidationError -> 1, NumericalError -> 2, ResourceLimitError -> 3.
"""


class CqmapError(Exception):
    """Base class for all cqmap failures."""


class ValidationError(CqmapError):
    """Malformed input: bad model description, argument out of range, etc."""


class ResourceLimitError(CqmapError):
    """Requested problem size exceeds the documented caps (2^N memory wall)."""


class NumericalError(CqmapError):
    """A numerically well-posed request failed during computation."""


class MappingPreconditionError(NumericalError):
    """An H made from a CSR is not symmetric: max|H - H^T| / max|H| exceeds SYMMETRY_RTOL."""


class NonStoquasticError(NumericalError):
    """Off-diagonal element above the stoquasticity tolerance."""


class ReducibleOperatorError(NumericalError):
    """Off-diagonal adjacency graph is disconnected (multiple stationary sectors)."""


class DegenerateGroundStateError(NumericalError):
    """Lowest eigenvalue is degenerate within tolerance; positive ground state undefined."""


class IllConditionedLogError(NumericalError):
    """Ground-state components too small to take -2 log(phi) reliably."""


class ConvergenceError(NumericalError):
    """Iterative eigensolver failed to converge within the iteration cap."""

    def __init__(self, message, eigenvalues=None, residual_norms=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residual_norms = residual_norms


class IntegrationError(NumericalError):
    """Time integration produced an invalid state (negative probability, norm drift)."""
