"""Exception types shared across the package."""


class FwdregError(Exception):
    """Base class for all package errors."""


class ColumnError(FwdregError):
    """Covariate column ``column`` (0-based) cannot be standardized."""

    reason = "cannot be standardized"

    def __init__(self, column: int, message: str = ""):
        self.column = column
        super().__init__(message or f"column {column} {self.reason}")

    def __reduce__(self):
        return type(self), (self.column, *self.args)


class ZeroVarianceColumn(ColumnError):
    """A covariate column is constant and cannot be standardized."""

    reason = "has zero sample variance"


class OverflowingColumn(ColumnError):
    """A covariate column's second moment overflows float64."""

    reason = "is too large to standardize: its second moment overflows float64"


class NumericOverflow(FwdregError):
    """A value that a fit, its oracle threshold or a simulated response needs
    overflows float64."""


class RankDeficientSupport(FwdregError):
    """The selected columns are numerically collinear."""


class CollinearCandidate(FwdregError):
    """A candidate column lies in the span of the current support."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is collinear with the current support")

    def __reduce__(self):
        return type(self), (self.column,)


class NotStandardized(FwdregError):
    """The design matrix does not have centered, unit-second-moment columns."""


class BudgetExceeded(FwdregError):
    """An exhaustive enumeration of size-``size`` subsets exceeds its budget."""

    def __init__(self, message: str, size: int):
        self.size = size
        super().__init__(message)

    def __reduce__(self):
        return type(self), (*self.args, self.size)


class MissingGroundTruth(FwdregError):
    """The operation needs the true coefficients / disturbances of a simulated dataset."""


class NonpositiveEigenvalue(FwdregError):
    """A bound formula received a nonpositive sparse eigenvalue."""
