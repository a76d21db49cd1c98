"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes: config/parse problems -> 2,
nonconvergence -> 3, numerical failures -> 4.
"""


class MindpdError(Exception):
    """Base class for all package errors."""


class DomainError(MindpdError):
    """Infeasible parameter point, incompatible supports, or an evaluation
    point outside the family's support where that is not allowed."""


class IngestionError(MindpdError):
    """Sample data rejected at ingestion (outside support, non-integer
    observations for a discrete family, malformed file)."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NumericalError(MindpdError):
    """A numerical routine failed to reach its tolerance.

    Carries the achieved error estimate when one is available.
    """

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class IntegrabilityError(NumericalError):
    """Quadrature error not shrinking: the requested integral looks divergent
    (theta outside the g-integrable region)."""


class EstimationError(MindpdError):
    """Estimation-level failure (no start converged, singular sandwich)."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class NonconvergenceError(EstimationError):
    """No optimizer start converged; carries the per-start trace."""


class StudyError(MindpdError):
    """Monte Carlo study aborted (e.g. nonconvergence rate above the cap)."""


class ConfigError(MindpdError):
    """Invalid run configuration (unknown family, bad flags, bad file)."""
