"""Exception types shared across the package."""


class FwdregError(Exception):
    """Base class for all package errors."""


class ZeroVarianceColumn(FwdregError):
    """A covariate column is constant and cannot be standardized."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has zero sample variance")


class RankDeficientSupport(FwdregError):
    """The selected columns are numerically collinear."""


class CollinearCandidate(FwdregError):
    """A candidate column lies in the span of the current support."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is collinear with the current support")


class NotStandardized(FwdregError):
    """The design matrix does not have centered, unit-second-moment columns."""


class BudgetExceeded(FwdregError):
    """An exhaustive enumeration of size-``size`` subsets exceeds its budget."""

    def __init__(self, message: str, size: int):
        self.size = size
        super().__init__(message)


class MissingGroundTruth(FwdregError):
    """The operation needs the true coefficients / disturbances of a simulated dataset."""


class NonpositiveEigenvalue(FwdregError):
    """A bound formula received a nonpositive sparse eigenvalue."""
