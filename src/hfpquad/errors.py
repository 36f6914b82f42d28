"""Exception types shared across the package."""


class HfpquadError(Exception):
    """Base class for all domain errors raised by hfpquad."""


class OrderTooLargeError(HfpquadError):
    """Requested Bernoulli/zeta order exceeds the configured maximum."""


class UnsupportedZetaArgumentError(HfpquadError):
    """zeta_at called at an argument outside its supported set."""


class DerivativesRequiredError(HfpquadError):
    """A rule needs derivative values of g at the singular point that were
    not supplied."""


class EvaluationError(HfpquadError):
    """An integrand evaluator failed or returned a non-finite value.

    Carries the index of the offending node when known.
    """

    def __init__(self, message, node_index=None, node_x=None):
        super().__init__(message)
        self.node_index = node_index
        self.node_x = node_x


class ReferenceConvergenceError(HfpquadError):
    """The brute-force reference integrator did not meet its tolerance."""


class SingularSystemError(HfpquadError):
    """A collocation matrix is singular to working precision.

    Carries the condition estimate that triggered the failure.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class InsufficientPreFloorDataError(HfpquadError):
    """Too few convergence rows above the roundoff floor for a rate fit."""
