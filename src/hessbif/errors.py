"""Exception types shared across the package.

The CLI maps these onto exit codes: InvalidInput -> 3, numerical/tracing
failures -> 2, verification failures -> 1.
"""


class HessbifError(Exception):
    """Base class for package errors."""


class InvalidInputError(HessbifError):
    """Arguments or input files violate a documented precondition or schema."""


class NumericalFailureError(HessbifError):
    """Integrator step failure, NaN/overflow, or a negative quantity under a k-th root."""


class TracingFailureError(HessbifError):
    """Branch tracing left more than the allowed fraction of unresolved gaps."""


class UnclassifiableLimitError(HessbifError):
    """Ratio sequence f(s)/s neither converges nor shows a consistent trend."""


class LimitConflictError(HessbifError):
    """Numeric limit classification disagrees with the declared class."""


class OutOfTableError(HessbifError):
    """Limit-class pair not covered by the existence table (equal finite limits)."""


class AtFoldError(HessbifError):
    """Solution counting was requested within plateau tolerance of a fold value."""

    def __init__(self, lam, fold_lambda):
        super().__init__(
            f"lambda={lam!r} is within plateau tolerance of fold at {fold_lambda!r}"
        )
        self.lam = lam
        self.fold_lambda = fold_lambda
