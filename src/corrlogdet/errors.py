"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class DegenerateInputError(ValueError):
    """Input is degenerate (e.g. a zero row that cannot be normalized)."""


class NotPositiveDefiniteError(ArithmeticError):
    """Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the 1-based index of the failing leading minor.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix not positive definite at pivot {pivot}")


class SingularStepError(ArithmeticError):
    """The sequential log-det recursion hit a non-positive factor.

    ``step`` is the 0-based index of the row whose squared residual
    distance to the span of the previous rows was not positive.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-positive determinant factor at step {step}")


class IncompleteTableError(KeyError):
    """A moment table is missing a key required by the requested evaluation."""


class InconsistentTableError(ValueError):
    """A moment table violates the unit-sphere constraint identities."""


class ResourceError(RuntimeError):
    """The request exceeds the deliberate size caps of an exhaustive routine."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class NumericalFailure(ArithmeticError):
    """Too many replications failed numerically for the run to be trusted."""
