"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation and domain problems exit
with 1, convergence failures with 2, I/O problems with 3.
"""


class ClusterSensError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ClusterSensError):
    """Input data or arguments violate a documented precondition."""


class SchemaError(ValidationError):
    """A CSV header lacks a required column or names a needed one twice."""


class DomainError(ValidationError):
    """A numeric parameter lies outside its mathematical domain."""


class SingularDesignError(ValidationError):
    """The fixed-effects design matrix is rank deficient."""


class VarianceDominationError(DomainError):
    """Between-study variance does not strictly exceed the bias variance."""


class ConvergenceError(ClusterSensError):
    """An optimizer exhausted its budget without converging.

    ``best`` carries the best iterate found so the caller can inspect
    how far the fit got.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class SeparationError(ConvergenceError):
    """A logistic fit diverged (complete or quasi-complete separation)."""
